"""The exact oracle: each product identity expanded over Z in the basis of
Gauss periods.

Every part of S is a Gauss period.  Let g be a primitive root mod n and
h = (n-1)/2, and number the pairs by their discrete log i mod h: pair i is
p_(g^i).  A part of s pairs is a coset of the subgroup H_D of index D = h/s
in the group of pairs, so its pairs share i mod D = r: it is the period
(D, r), written eta_D(k) for any pair k it holds, and the automorphism
sigma_t: z -> z^(g^t) sends it to (D, r + t).  Every index divides h, a
power of two.

The product (Gauss, Disquisitiones Arithmeticae, arts. 343-345).  Let X and
Y be periods of indexes d | D, and y a pair of Y.  As p_a p_b = p_(a+b) +
p_(a-b), with p_0 = 2,

    X * Y = sum over the pairs x of X of eta_D(x + y) + eta_D(x - y),

where eta_D(0) stands for the constant 2h/D, the sum of p_0 over H_D.
Indeed Y is the sum of p_(wy) over w in H_D, so X * Y sums p_(x + wy) +
p_(x - wy) over the pairs x of X and w in H_D.  X is a union of cosets of
H_D, so x -> wx permutes its pairs, and the sum over x of p_(x + wy) is the
sum over x of p_(w(x + y)); summed over w, that is the sum over x of
eta_D(x + y), and likewise for x - y.  The expansion costs h/d pair steps,
the size of the coarser period (`pv_mul`).

Why the check is exact.  `Oracle.check` proves a node's identity 2*L*R =
c0 + sum c*X + sum d*Y^2 (its coefficients as they stand, counting halves)
by collecting delta = 2LR - (c0 + sum c*X + sum d*Y^2) over Z as c + sum_j
a_j eta_E(j), j < E, where E is the largest index among the node's parts:
a period (D, r) of index D | E is the sum of the E/D periods eta_E(j),
j = r (mod D), below it.  The periods of index E are sums of disjoint sets
of the powers z^1 .. z^(n-1), which are linearly independent over Q, so
they are too; and they sum to S = -1, so delta = sum_j (a_j - c) eta_E(j)
is 0 iff every a_j equals c.  The coefficients are Python ints: no prime,
bound or field is needed.  A class costs O(h (terms + 1)) steps: each
product at most h pair steps, and each term or product spread over at
most E coefficients (`Oracle.expand`).

Classes.  A node N is checked in full only when no node M already proved
has its key: with its left half placed (D, r), that is D, the right half
as (D_R, (r_R - r) mod D_R), the constant, and the linear and the squared
terms each as the sorted (c, D', (r' - r) mod D').  Equal keys with
t = r_N - r_M say, term by term, that N's halves and expression are the
images under sigma_t of M's, for sigma_t sends the period (D', r') to
(D', r' + t) and is a field automorphism: applied to M's identity
2LR = c0 + sum c*X + sum d*Y^2 it gives N's exactly.  The key is read from
the stored expression, never assumed, and is kept only once its expansion
has passed; a full 65537 tower of 32,767 nodes has 15 keys.  Each part is
placed once per pass (`Oracle.place`): a G part by the logs of its pairs,
an F part by its sets alone.  Each set's logs are checked once per pass, as
a coset of index ng, so a set is exactly 2^nu distinct pairs of one coset;
an F part is by definition whole sets, and it is the period (D, r) iff its
sets' residues mod ng are r, r + D, .. .

The oracle reads only the table's parameters and sets, the node's parts
(through `invariant_sets.part_members`) and its expression, and keeps its
tables for one pass (`Oracle`); it imports nothing that derives the
expressions it checks (`splitting`, `period_algebra`).
"""

from array import array
from collections import defaultdict
from typing import NamedTuple, Sequence

from .errors import VerificationError
from .invariant_sets import part_members


class OracleMismatch(VerificationError):
    """A product expression is not exactly equal to the product it stands for."""


def _coset(members, order: int) -> tuple[int, int] | None:
    """(D, r) when the members, below `order`, are exactly r, r + D, r + 2D,
    .. with r < D, D = order / their count; else None."""
    members = sorted(members)
    index = order // len(members) if members and order % len(members) == 0 else 0
    return (index, members[0]) if index and members == list(range(members[0], order, index)) else None


class PeriodValues(NamedTuple):
    """A placed period (D, r): the elements g^i of its pairs, i = r, r + D,
    .. below h (`coeffs`), and its index D."""

    coeffs: Sequence[int]  # the name perfbench's `oracle.pair_products` counter reads
    index: int


def pv_of_part(oracle: "Oracle", part) -> PeriodValues:
    """A part placed by `oracle`, as the period it is."""
    d, r = oracle.places[part]
    return PeriodValues(oracle.elements[r::d], d)


def pv_mul(a: PeriodValues, b: PeriodValues, logs) -> tuple[int, dict]:
    """a * b as (c, v): c + sum_j v[j] eta_D(j), j < D, D the larger index.
    With y a pair of the finer period, it is the sum over the pairs x of the
    other of eta_D(x + y) + eta_D(x - y), eta_D(0) = 2h/D (see the module
    docstring).  `logs` is indexed by residue mod n, so x + y - n and x - y,
    both in (-n, n), index it as they stand."""
    if a.index > b.index:
        a, b = b, a
    n, d, y = len(logs), b.index, b.coeffs[0]
    values, zeros = defaultdict(int), 0
    for x in a.coeffs:
        values[logs[x + y - n] % d] += 1
        if x == y:
            zeros += 1
        else:
            values[logs[x - y] % d] += 1
    return zeros * (n - 1) // d, values


class Oracle:
    """One pass of exact checks over one table: the place (D, r) of each
    set and of each part met, and the keys of the nodes it has proved."""

    def __init__(self, table):
        self.table = table
        n, h = table.params.n, table.params.npairs
        # n - 1 is a power of two, so every non-residue is a primitive root.
        g = next(g for g in range(2, n) if pow(g, h, n) == n - 1)
        x = 1
        self.elements = array("i", [1])  # element g^i of pair i
        self.elements.extend(x := x * g % n for _ in range(h - 1))
        self.logs = array("i", [0]) * n  # residue k -> i, +-k = g^i
        for i, e in enumerate(self.elements):
            self.logs[e] = self.logs[n - e] = i
        # Set k's place (ng, r_k), or None when its logs are not a coset of index ng.
        ng = table.params.ng
        self.set_places = [None] + [
            place if (place := _coset(map(self.logs.__getitem__, row), h)) and place[0] == ng else None
            for row in table.sets
        ]
        self.places: dict = {}
        self.proved: set = set()

    def place(self, part) -> tuple[int, int] | None:
        """(D, r) when the part's pairs are exactly the coset of index D
        holding pair r, else None.  A G part is placed by `_coset` of its
        pairs' logs.  An F part is its sets (`part_members`), each a coset
        of index ng (`set_places`), so it is placed by `_coset` of their
        residues r_k in Z/ng, and not at all if a set has no place."""
        if part not in self.places:
            params = self.table.params
            members = part_members(part, self.table)
            if part.kind != "F":
                place = _coset(map(self.logs.__getitem__, members), params.npairs)
            else:
                sets = [self.set_places[k] for k in members]
                place = None if None in sets else _coset([r for _, r in sets], params.ng)
            self.places[part] = place
        return self.places[part]

    def expand(self, constant: int, linear, products, index: int) -> tuple[int, dict]:
        """constant + sum c*X over the (c, X) in `linear` + sum c*X*Y over
        the (c, X, Y) in `products`, placed parts whose indexes divide
        `index`, as (c, a): c + sum_j a[j] eta_index(j), j < index, where a
        j missing from a counts 0.  A period (D, r), or a coefficient of
        eta_D(r) in a product, is spread over the residues j = r (mod D)."""
        coeffs = defaultdict(int)

        def spread(c, d, r):
            for j in range(r, index, d):
                coeffs[j] += c

        for c, part in linear:
            spread(c, *self.places[part])
        for c, x, y in products:
            k, values = pv_mul(pv_of_part(self, x), pv_of_part(self, y), self.logs)
            constant += c * k
            d = max(self.places[x][0], self.places[y][0])
            for r, v in values.items():
                spread(c * v, d, r)
        return constant, coeffs

    def check(self, node) -> None:
        """Raise OracleMismatch unless 2 * left * right equals the node's
        product expression exactly (see the module docstring).  One pass
        over the node's terms places each part and builds its key; a new
        key is proved by expanding the difference of the two sides."""
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

        index = max(d, d_right, *(e for _, e, _ in key[3] + key[4]))
        constant, coeffs = self.expand(
            -combo.constant,
            [(-c, part) for c, part in combo.linear],
            [(2, left, right)] + [(-c, part, part) for c, part in combo.squares],
            index,
        )
        wrong = sum(a != constant for a in coeffs.values()) + (index - len(coeffs)) * (constant != 0)
        if wrong:
            raise OracleMismatch(
                f"product of {left.label(self.table)} and {right.label(self.table)} "
                f"differs from its expression in {wrong} of {index} period coefficients", node.id
            )
        self.proved.add(key)
