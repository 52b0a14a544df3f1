"""The exact oracle: each product identity checked at its conjugates modulo
primes l = 1 (mod n).

Every part of S is a Gauss period.  Let g be a primitive root mod n and
h = (n-1)/2, and number the pairs by their discrete log i mod h: pair i is
p_(g^i).  A part of s pairs is a coset of the subgroup of index D = h/s, so
its pairs share i mod D = r: it is the period (D, r), and the automorphism
sigma_t: z -> z^(g^t) sends it to (D, r + t).  Modulo a prime l = 1 (mod n)
with z_l of order n in F_l, pair i maps to ps[i] = z_l^(g^i) + z_l^-(g^i),
and the conjugate t of the period (D', r) to eta_D'[(r + t) mod D'], where
eta_D'[j] sums ps[i] over i = j (mod D').

`Oracle.check` tests a node's identity 2*L*R = c0 + sum c*X + sum d*Y^2
(its coefficients as they stand, counting halves) at the D conjugates
t = 0 .. D-1, D the largest index among its parts: every index divides h,
a power of two, so D is a multiple of them all.

Why it is exact.  delta = 2LR - (c0 + sum c*X + sum d*Y^2) lies in the field K_D of degree D that
holds every part.  The n-1 maps Z[z] -> F_l, z -> z_l^j, are the sigma
followed by z -> z_l, so on delta they take only the D values checked (l
splits completely in Q(z); these are the D primes above l in K_D).  Write
delta = sum_k a_k z^k over k = 1 .. n-1 (1 = -sum z^k).  If every value is
0, so are the n-1 sums sum_k a_k z_l^(jk), whose matrix, a Vandermonde
matrix in distinct nodes times a diagonal, is invertible over F_l: l
divides every a_k.

The bound.  In this basis a constant c is -c on every z^k, and c*X is c on
the 2s distinct powers z^k of a part X of s pairs.  The coefficient of z^k
in X*Y counts the exponent pairs (a, b) with a + b = k, less those with
a + b = 0 (mod n); each a meets at most one b, so both counts lie in
0 .. 2 min(|X|, |Y|).  So every |a_k| <= B = 4 min(|L|, |R|) + C, where
C = |c0| + sum |c| + 2 sum |d| |Y| bounds the expression, sizes in pairs.
The check runs modulo the largest primes l = 1 (mod n) below 2^31 until
their product exceeds B, which then divides each a_k: all are 0.  Real
towers have B below 10^5: one prime.

The packed check.  Each prime's tables hold 64-bit fields, one per
conjugate, so a part's values at its conjugates read as one Python int.
A node whose halves are placed (D, r) and (D, r + D/2), as every node a
schedule writes is, has 2LR = pi_D[(r + t) mod D/2] at conjugate t, where
pi_D[j] = 2 eta_D[j] eta_D[j + D/2].  Split the expression's terms by the
sign of their coefficients into P and N, whose fields lie in 0 .. C l.
With K the least multiple of l from 2^62, every field of
Delta = P + (K + c0) (1, .., 1) - N - 2LR lies within (C + 1) l of 2^62;
so while (C + 2) l < 2^62, the carry guard, each lies in 0 .. 2^63, and
Delta, in whatever order its terms are summed, is its fields side by side:
none borrows from or carries into its neighbour.  Every field is then
0 mod l exactly when l divides Delta and every field of Delta / l is below
2^(64 - bits(l)): l times such a field still fits in 64 bits, and a field
below 2^63 divided by l is always below it.  A node outside the guard, or
whose halves are placed otherwise, is checked one conjugate at a time
modulo the same primes.

The oracle reads only the table's parameters, `part_pairs`, the node's
parts and its expression, and keeps its tables for one pass (`Oracle`).
"""

import sys
from array import array
from operator import ne
from typing import NamedTuple, Sequence

from .errors import VerificationError
from .splitting import part_pairs


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
    powers = array("Q", [1]) * count
    for i in range(1, count):
        powers[i] = powers[i - 1] * base % mod
    return powers


def _packed(fields) -> int:
    """64-bit fields as one int, the first field lowest."""
    return int.from_bytes(fields, sys.byteorder)


def _tiled(value: int, size: int, count: int) -> int:
    """`value`, of `size` fields, repeated `count` (a power of two) times."""
    while count > 1:
        value |= value << (64 * size)
        size, count = 2 * size, count // 2
    return value


class PeriodValues(NamedTuple):
    """A number modulo one prime as its values at conjugates, each in
    0 .. prime-1: its coordinates in F_l^D, into which K_D splits."""

    coeffs: Sequence[int]
    prime: int


def pv_mul(a: PeriodValues, b: PeriodValues) -> PeriodValues:
    """a * b, conjugate by conjugate."""
    ell = a.prime
    return PeriodValues(array("Q", [x * y % ell for x, y in zip(a.coeffs, b.coeffs)]), ell)


class _Field:
    """The images of every period modulo one prime, each table packed
    twice over (`_packed`) so that a run of fields starts anywhere:
    `eta[D]` holds eta_D, whose fields r .. r + D-1 are the period (D, r)
    at the conjugates t = 0 .. D-1, and `halves[D]` (D >= 2) holds the D/2
    values pi_D[j] = 2 eta_D[j] eta_D[j + D/2].  `masks[D]` is 2^(64 D) - 1,
    which cuts D fields out of a table shifted down to their first."""

    def __init__(self, ell: int, n: int, elements: array):
        self.prime = ell
        # The least multiple of l from 2^62: the offset that keeps the
        # packed check's fields from borrowing.
        self.offset = -(-(1 << 62) // ell) * ell
        a = 2
        while pow(a, (ell - 1) // n, ell) == 1:
            a += 1
        zpow = _powers(pow(a, (ell - 1) // n, ell), n, ell)
        eta = array("Q", [(zpow[e] + zpow[n - e]) % ell for e in elements])
        self.eta, self.halves = {}, {}
        while True:
            self.eta[len(eta)] = _packed(eta * 2)
            if len(eta) == 1:
                break
            low, high = eta[: len(eta) // 2], eta[len(eta) // 2 :]
            self.halves[len(eta)] = _packed(array("Q", [2 * x * y % ell for x, y in zip(low, high)]) * 2)
            eta = array("Q", [(x + y) % ell for x, y in zip(low, high)])
        self.masks = {size: (1 << (64 * size)) - 1 for size in self.eta}
        self._tiles: dict[int, tuple[int, int]] = {}

    def tiles(self, index: int) -> tuple[int, int]:
        """1, and the bits from 64 - bits(l) up, in each of `index` fields."""
        if index not in self._tiles:
            high = (1 << 64) - (1 << (64 - self.prime.bit_length()))
            self._tiles[index] = _tiled(1, 1, index), _tiled(high, 1, index)
        return self._tiles[index]

    def divides(self, delta: int, index: int) -> bool:
        """True when l divides every field of `delta`, whose `index` fields
        are each below 2^63 (see the module docstring)."""
        quotient, rest = divmod(delta, self.prime)
        return rest == 0 and not quotient & self.tiles(index)[1]


def pv_of_part(oracle: "Oracle", part, field: _Field, index: int | None = None) -> PeriodValues:
    """A part placed by `oracle` at the conjugates t = 0 .. index-1: of its
    own index D when None, else of a multiple of D, over which they repeat."""
    d, r = oracle.places[part]
    values = ((field.eta[d] >> (64 * r)) & field.masks[d]).to_bytes(8 * d, sys.byteorder)
    return PeriodValues(array("Q", values * (1 if index is None else index // d)), field.prime)


class Oracle:
    """One pass of exact checks over one table: the place (D, r) of each
    part met, and the periods modulo each prime the pass has needed."""

    def __init__(self, table):
        self.table = table
        n, h = table.params.n, table.params.npairs
        # n - 1 is a power of two, so every non-residue is a primitive root.
        g = next(g for g in range(2, n) if pow(g, h, n) == n - 1)
        self.elements = _powers(g, h, n)  # element g^i of pair i
        self.logs = array("i", [0]) * (h + 1)  # pair number -> i
        for i, e in enumerate(self.elements):
            self.logs[min(e, n - e)] = i
        self.places: dict = {}
        self.fields: list[_Field] = []
        self._primes = _primes(n)

    def place(self, part) -> tuple[int, int] | None:
        """(D, r) when the part's pairs are exactly the coset of index D
        holding pair r, else None: the logs of its pairs, sorted, run
        r, r + D, r + 2D, .. below h with r < D.  Checked once per part and
        pass."""
        if part not in self.places:
            h = self.table.params.npairs
            logs = sorted(map(self.logs.__getitem__, part_pairs(part, self.table)))
            index = h // len(logs) if logs and h % len(logs) == 0 else 0
            exact = index and logs == list(range(logs[0], h, index))
            self.places[part] = (index, logs[0]) if exact else None
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

    def expression_image(self, combo, index: int, field: _Field) -> list[int]:
        """c0 + sum c*X + sum d*Y^2 at the conjugates t = 0 .. index-1,
        one conjugate at a time."""
        ell = field.prime
        image = [combo.constant % ell] * index
        for terms, squared in ((combo.linear, False), (combo.squares, True)):
            for c, part in terms:
                y = pv_of_part(self, part, field, index)
                y = pv_mul(y, y) if squared else y
                image = [(s + c * v) % ell for s, v in zip(image, y.coeffs)]
        return image

    def packed_check(self, node, index: int, field: _Field) -> bool:
        """2 * left * right == the node's expression at every conjugate, all
        at once; for halves placed (D, r) and (D, r + D/2) and an expression
        inside the carry guard (see the module docstring)."""
        combo = node.product_expr
        # The terms of one index and coefficient are summed before they are
        # scaled and repeated over the `index` fields.
        sums: dict[tuple[int, int], int] = {}
        places, eta, masks = self.places, field.eta, field.masks
        for c, part in combo.linear:
            d, r = places[part]
            sums[d, c] = sums.get((d, c), 0) + ((eta[d] >> (64 * r)) & masks[d])
        for c, part in combo.squares:
            y = pv_of_part(self, part, field)
            sums[len(y.coeffs), c] = sums.get((len(y.coeffs), c), 0) + _packed(pv_mul(y, y).coeffs)
        d, r = self.places[node.left]
        half = d // 2
        delta = (field.offset + combo.constant) * field.tiles(index)[0]
        delta -= _tiled((field.halves[d] >> (64 * (r % half))) & masks[half], half, index // half)
        for (size, c), total in sums.items():
            term = _tiled(abs(c) * total, size, index // size)
            delta += term if c > 0 else -term
        return field.divides(delta, index)

    def conjugate_check(self, node, index: int, field: _Field) -> int:
        """How many of the conjugates t = 0 .. index-1 tell 2 * left * right
        from the node's expression, one conjugate at a time."""
        ell = field.prime
        sides = pv_of_part(self, node.left, field, index), pv_of_part(self, node.right, field, index)
        lhs = [2 * x % ell for x in pv_mul(*sides).coeffs]
        return sum(map(ne, lhs, self.expression_image(node.product_expr, index, field)))

    def check(self, node) -> None:
        """Raise OracleMismatch unless 2 * left * right equals the node's
        product expression exactly (see the module docstring)."""
        combo, left, right = node.product_expr, node.left, node.right
        parts = [left, right, *combo.referenced_parts()]
        for part in parts:
            if self.place(part) is None:
                raise OracleMismatch(
                    f"{part.label(self.table)} is not a Gauss period: its pairs are "
                    "not one coset of the pair group", node.id
                )
        index = max(self.places[part][0] for part in parts)
        (d, r), (d_right, r_right) = self.places[left], self.places[right]
        siblings = d == d_right > 1 and abs(r - r_right) == d // 2
        expression = self.expression_bound(combo)
        bound = 4 * (self.table.params.npairs // max(d, d_right)) + expression
        for field in self.fields_for(bound):
            ell = field.prime
            packed = siblings and (expression + 2) * ell < 2**62
            if packed and self.packed_check(node, index, field):
                continue
            wrong = self.conjugate_check(node, index, field)
            if wrong:
                raise OracleMismatch(
                    f"product of {left.label(self.table)} and {right.label(self.table)} "
                    f"differs from its expression at {wrong} of {index} "
                    f"conjugates modulo {ell}",
                    node.id,
                )
