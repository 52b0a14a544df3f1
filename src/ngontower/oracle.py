"""The exact oracle: each product identity checked at its conjugates modulo
primes l = 1 (mod n), or expanded over Z in the pair basis.

Every part of S is a Gauss period.  Let g be a primitive root mod n and
h = (n-1)/2, and number the pairs by their discrete log i mod h: pair i is
p_(g^i).  A part of s pairs is a coset of the subgroup of index D = h/s, so
its pairs share i mod D = r: it is the period (D, r), and the automorphism
sigma_t: z -> z^(g^t) sends it to (D, r + t).  Modulo a prime l = 1 (mod n)
with z_l of order n in F_l, pair i maps to ps[i] = z_l^(g^i) + z_l^-(g^i),
and the conjugate t of the period (D', r) to eta_D'[(r + t) mod D'], where
eta_D'[j] sums ps[i] over i = j (mod D').

`Oracle.check` proves a node's identity 2*L*R = c0 + sum c*X + sum d*Y^2
(its coefficients as they stand, counting halves) by one of two exact
methods, chosen before any work from the sizes of its class (`expands`):

- by expansion over Z, which costs about s_L s_R + sum s_X + sum s_Y^2
  steps, sizes in pairs, when 8 times that is at most the conjugates' cost;
- else at the D conjugates t = 0 .. D-1, D the largest index among its
  parts (every index divides h, a power of two, so D is a multiple of them
  all), at a cost of about D (terms + 3) per prime.

At n = 65537 the classes of index 2 to 512 go by conjugates, where the
halves hold 16,384 to 64 pairs, and those of index 1,024 to 32,768 by
expansion, where they hold 32 to 1 pairs.

Why the expansion is exact.  p_a p_b = p_(a+b) + p_|a-b|, with p_0 = 2 and
index k read as min(k, n-k), turns delta = 2LR - (c0 + sum c*X + sum
d*Y^2) into integers c + sum_k a_k p_k over k = 1 .. h.  As p_1 .. p_h are
a basis of the real subfield and sum_k p_k = -1, delta = sum_k (a_k - c)
p_k is 0 iff every a_k equals c.  No prime, bound or field is needed.

Why the conjugates are exact.  delta lies in the field K_D of degree D
that holds every part.  The n-1 maps Z[z] -> F_l, z -> z_l^j, are the sigma
followed by z -> z_l, so on delta they take only the D values checked (l
splits completely in Q(z); these are the D primes above l in K_D).  Write
delta = sum_k a_k z^k over k = 1 .. n-1 (1 = -sum z^k).  If every value is
0, so are the n-1 sums sum_k a_k z_l^(jk), whose matrix, a Vandermonde
matrix in distinct nodes times a diagonal, is invertible over F_l: l
divides every a_k.

The bound (conjugates only).  In this basis a constant c is -c on every
z^k, and c*X is c on the 2s distinct powers z^k of a part X of s pairs.
The coefficient of z^k in X*Y counts the exponent pairs (a, b) with
a + b = k, less those with a + b = 0 (mod n); each a meets at most one b,
so both counts lie in 0 .. 2 min(|X|, |Y|).  So every |a_k| <= B =
4 min(|L|, |R|) + C, where C = |c0| + sum |c| + 2 sum |d| |Y| bounds the
expression, sizes in pairs.  The check runs modulo the largest primes
l = 1 (mod n) below 2^31 until their product exceeds B, which then divides
each a_k: all are 0.  Real towers have B below 10^5: one prime.

Classes.  A node N is checked in full only when no node M already proved
has its key: with its left half placed (D, r), that is D, the right half
as (D_R, (r_R - r) mod D_R), the constant, and the linear and the squared
terms each as the sorted (c, D', (r' - r) mod D').  Equal keys with
t = r_N - r_M say, term by term, that N's halves and expression are the
images under sigma_t of M's, for sigma_t sends the period (D', r') to
(D', r' + t) and is a field automorphism: applied to M's identity
2LR = c0 + sum c*X + sum d*Y^2 it gives N's exactly.  The key is read from
the stored expression, never assumed, and is kept only once its method
has passed; a full 65537 tower of 32,767 nodes has 15 keys.  Each part is
placed once per pass: a G part by the logs of its pairs, an F part set by
set.  Its pairs must be whole sets of the table, each set's logs are
checked once, as a coset of index ng, and the part is placed by its sets'
residues mod ng (`Oracle.place`).

Blocks (conjugates only).  The two sides are compared BLOCK conjugates at
a time, and a mismatch count is the sum of its blocks' counts.  A part's
values are held at its own index as 64-bit fields (`array('Q')`, 8 bytes a
conjugate); only the block's products, expression and comparison are
Python ints.  So a pass holds its fields (about 16 bytes a pair for one
prime), its places and keys, and at most a few blocks of ints, whatever the
index.  In the expression, the terms that share a period below the block's
length are summed once over that period and the sum is tiled across the
block once; a term of a longer period is read over the block.

The oracle reads only the table's parameters, `part_pairs`, the node's
parts and its expression, and keeps its tables for one pass (`Oracle`).
"""

from array import array
from collections import defaultdict
from itertools import chain
from operator import ne
from typing import NamedTuple, Sequence

from .errors import VerificationError
from .splitting import part_pairs


BLOCK = 4096  # conjugates compared at a time


class OracleMismatch(VerificationError):
    """A product expression is not exactly equal to the product it stands for."""


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, bases 2, 3, 5 and 7: exact below 3.2e9."""
    bases = (2, 3, 5, 7)
    if m < 2 or any(m % p == 0 for p in bases):
        return m in bases
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, m)
        if x != 1 and all(pow(x, 1 << j, m) != m - 1 for j in range(s)):
            return False
    return True


def _primes(n: int):
    """The primes l = 1 (mod n) below 2^31, largest first."""
    top = (2**31 - 2) // (2 * n) * (2 * n) + 1
    return (ell for ell in range(top, 1, -2 * n) if _is_prime(ell))


def _powers(base: int, count: int, mod: int) -> array:
    """base^0 .. base^(count-1) modulo mod, as 64-bit fields."""
    x = 1
    powers = array("Q", [1])
    powers.extend(x := x * base % mod for _ in range(count - 1))
    return powers


def _coset(members, order: int) -> tuple[int, int] | None:
    """(D, r) when the members, below `order`, are exactly r, r + D, r + 2D,
    .. with r < D, D = order / their count; else None."""
    members = sorted(members)
    index = order // len(members) if members and order % len(members) == 0 else 0
    return (index, members[0]) if index and members == list(range(members[0], order, index)) else None


class PeriodValues(NamedTuple):
    """A number modulo one prime as its values at conjugates, each in
    0 .. prime-1: its coordinates in F_l^D, into which K_D splits."""

    coeffs: Sequence[int]
    prime: int


def pv_mul(a: PeriodValues, b: PeriodValues) -> PeriodValues:
    """a * b, conjugate by conjugate."""
    ell = a.prime
    return PeriodValues(array("Q", [x * y % ell for x, y in zip(a.coeffs, b.coeffs)]), ell)


def _at(values: PeriodValues, block: range) -> PeriodValues:
    """`values`, which repeat with period len(values.coeffs), at the
    conjugates in `block`."""
    coeffs, d = values.coeffs, len(values.coeffs)
    start = block.start % d
    stop = start + len(block)
    return PeriodValues((coeffs if stop <= d else coeffs * -(-stop // d))[start:stop], values.prime)


class _Field:
    """The images of every period modulo one prime: `eta[D]` holds eta_D,
    whose entries r, r + 1, .. (mod D) are the period (D, r) at the
    conjugates t = 0 .. D-1."""

    def __init__(self, ell: int, n: int, elements: array):
        self.prime = ell
        a = 2
        while pow(a, (ell - 1) // n, ell) == 1:
            a += 1
        zpow = _powers(pow(a, (ell - 1) // n, ell), n, ell)
        eta = array("Q", ((zpow[e] + zpow[n - e]) % ell for e in elements))
        self.eta = {len(eta): eta}
        while len(eta) > 1:
            half = len(eta) // 2
            eta = array("Q", ((x + y) % ell for x, y in zip(eta[:half], eta[half:])))
            self.eta[half] = eta


def pv_of_part(oracle: "Oracle", part, field: _Field) -> PeriodValues:
    """A part placed by `oracle` at the conjugates t = 0 .. D-1 of its own
    index D; over a multiple of D they repeat."""
    d, r = oracle.places[part]
    eta = field.eta[d]
    return PeriodValues(eta[r:] + eta[:r], field.prime)


class Oracle:
    """One pass of exact checks over one table: the place (D, r) of each
    set and of each part met, the periods modulo each prime the pass has
    needed, and the keys of the nodes it has proved."""

    def __init__(self, table):
        self.table = table
        n, h = table.params.n, table.params.npairs
        # n - 1 is a power of two, so every non-residue is a primitive root.
        g = next(g for g in range(2, n) if pow(g, h, n) == n - 1)
        self.elements = _powers(g, h, n)  # element g^i of pair i
        self.logs = array("i", [0]) * (h + 1)  # pair number -> i
        for i, e in enumerate(self.elements):
            self.logs[e if e <= h else n - e] = i
        # Set k's place (ng, r_k), or None when its logs are not a coset of index ng.
        ng = table.params.ng
        self.set_places = [None] + [
            place if (place := _coset(map(self.logs.__getitem__, row), h)) and place[0] == ng else None
            for row in table.sets
        ]
        self.places: dict = {}
        self.fields: list[_Field] = []
        self.proved: set = set()
        self._primes = _primes(n)

    def place(self, part) -> tuple[int, int] | None:
        """(D, r) when the part's pairs are exactly the coset of index D
        holding pair r, else None.  A G part is placed by `_coset` of its
        pairs' logs; an F part's pairs must be whole sets of the table, one
        after another, and their residues r_k (`set_places`) a coset of
        index D in Z/ng."""
        if part not in self.places:
            table = self.table
            pairs = part_pairs(part, table)
            if part.kind != "F":
                place = _coset(map(self.logs.__getitem__, pairs), table.params.npairs)
            else:
                ks = [table.set_of[p] for p in pairs[:: 1 << table.params.nu]]
                sets = [self.set_places[k] for k in ks]
                whole = pairs == tuple(chain.from_iterable(table.sets[k - 1] for k in ks))
                place = _coset([r for _, r in sets], table.params.ng) if whole and None not in sets else None
            self.places[part] = place
        return self.places[part]

    def fields_for(self, bound: int) -> list[_Field]:
        """The fields of the largest primes l = 1 (mod n) whose product
        exceeds `bound`."""
        product, count = 1, 0
        while product <= bound:
            if count == len(self.fields):
                self.fields.append(_Field(next(self._primes), self.table.params.n, self.elements))
            product *= self.fields[count].prime
            count += 1
        return self.fields[:count]

    def expression_bound(self, combo) -> int:
        """|c0| + sum |c| + 2 sum |d| |Y|: no coefficient of c0 + sum c*X +
        sum d*Y^2 in the basis z^1 .. z^(n-1) is larger."""
        h = self.table.params.npairs
        squares = sum(abs(d) * h // self.places[p][0] for d, p in combo.squares)
        return abs(combo.constant) + sum(abs(c) for c, _ in combo.linear) + 2 * squares

    def expression_image(
        self, combo, index: int, field: _Field, block: range | None = None
    ) -> list[int]:
        """c0 + sum c*X + sum d*Y^2 at the conjugates in `block`, a range
        inside 0 .. index-1 (all of them when None): the terms of each
        period below the block's length are summed over that period and
        tiled across the block once, every other term is read over the
        block, and each sum is reduced modulo the prime once."""
        ell = field.prime
        block = range(index) if block is None else block
        size = len(block)
        sums = {size: [combo.constant] * size}  # the sum of the terms of each period
        for terms, squared in ((combo.linear, False), (combo.squares, True)):
            for c, part in terms:
                y = pv_of_part(self, part, field)
                y = _at(y, block) if len(y.coeffs) >= size else y
                y = pv_mul(y, y) if squared else y
                period = len(y.coeffs)
                acc = sums[period] if period in sums else [0] * period
                sums[period] = [s + c * v for s, v in zip(acc, y.coeffs)]
        image = sums.pop(size)
        for values in sums.values():
            tiled = _at(PeriodValues([v % ell for v in values], ell), block).coeffs
            image = [s + v for s, v in zip(image, tiled)]
        return [s % ell for s in image]

    def conjugate_check(self, node, index: int, field: _Field) -> int:
        """How many of the conjugates t = 0 .. index-1 tell 2 * left * right
        from the node's expression: each block of BLOCK conjugates is
        compared one conjugate at a time, and the counts are summed."""
        ell = field.prime
        left, right = pv_of_part(self, node.left, field), pv_of_part(self, node.right, field)
        wrong = 0
        for start in range(0, index, BLOCK):
            block = range(start, min(start + BLOCK, index))
            lhs = [2 * x % ell for x in pv_mul(_at(left, block), _at(right, block)).coeffs]
            wrong += sum(map(ne, lhs, self.expression_image(node.product_expr, index, field, block)))
        return wrong

    def expansion_check(self, node) -> int:
        """How many pair coefficients of 2 * left * right - expression,
        expanded over Z by p_a * p_b = p_(a+b) + p_|a-b| (p_0 = 2, index k
        read as min(k, n-k)), differ from its constant: 0 iff the two sides
        are equal.  Its parts must be placed."""
        n, h = self.table.params.n, self.table.params.npairs
        combo = node.product_expr
        coeffs = defaultdict(int)

        def pairs(part):
            d, r = self.places[part]
            return [e if e <= h else n - e for e in self.elements[r::d]]

        def product(c, xs, ys):
            for a in xs:
                for b in ys:
                    coeffs[a + b if a + b <= h else n - a - b] += c
                    coeffs[abs(a - b)] += c

        product(2, pairs(node.left), pairs(node.right))
        for c, part in combo.linear:
            for k in pairs(part):
                coeffs[k] -= c
        for d, part in combo.squares:
            ys = pairs(part)
            product(-d, ys, ys)
        constant = 2 * coeffs.pop(0, 0) - combo.constant
        return sum(v != constant for v in coeffs.values()) + (h - len(coeffs)) * (constant != 0)

    def expands(self, key: tuple, index: int) -> bool:
        """Whether the class of `key` (see `check`), of index `index`, is
        proved by expansion over Z: when 8 times its cost, s_L s_R + sum s_X
        + sum s_Y^2 in parts' pairs, is at most the conjugates' cost,
        index * (terms + 3)."""
        h, (d, (e, _), _, linear, squares) = self.table.params.npairs, key
        cost = (h // d) * (h // e) + sum(h // f for _, f, _ in linear)
        cost += sum((h // f) ** 2 for _, f, _ in squares)
        return 8 * cost <= index * (len(linear) + len(squares) + 3)

    def check(self, node) -> None:
        """Raise OracleMismatch unless 2 * left * right equals the node's
        product expression exactly (see the module docstring).  One pass
        over the node's terms places each part and builds its key; a new
        key is proved by the cheaper method its sizes choose."""
        combo, left, right, places = node.product_expr, node.left, node.right, self.places

        def at(part):
            place = places.get(part) or self.place(part)
            if place is None:
                raise OracleMismatch(
                    f"{part.label(self.table)} is not a Gauss period: its pairs are "
                    "not one coset of the pair group", node.id
                )
            return place

        (d, r), (d_right, s) = at(left), at(right)
        key = [d, (d_right, (s - r) % d_right), combo.constant]
        for terms in (combo.linear, combo.squares):
            relative = []
            for c, part in terms:
                e, s = at(part)
                relative.append((c, e, (s - r) % e))
            relative.sort()
            key.append(tuple(relative))
        key = tuple(key)
        if key in self.proved:
            return

        def refuse(where):
            raise OracleMismatch(
                f"product of {left.label(self.table)} and {right.label(self.table)} "
                f"differs from its expression {where}", node.id
            )

        h = self.table.params.npairs
        index = max(d, d_right, *(e for _, e, _ in key[3] + key[4]))
        if self.expands(key, index):
            wrong = self.expansion_check(node)
            if wrong:
                refuse(f"in {wrong} of {h} pair coefficients")
        else:
            for field in self.fields_for(4 * (h // max(d, d_right)) + self.expression_bound(combo)):
                wrong = self.conjugate_check(node, index, field)
                if wrong:
                    refuse(f"at {wrong} of {index} conjugates modulo {field.prime}")
        self.proved.add(key)
