"""The split products: the derivation of each node's product expression.

The parts F(j, 2^m) and G_k(j, 2^m) and their halves are defined over the set
table (`invariant_sets`).  For every split the sum of the two children is the
parent, so only the product needs an expression over already-computed parts.
F-split products come from the multiplicity table mu(k, 2^m); G-split
products come from the squares identity with the correction term
Pr = Pr_M + 2*Pr_L, derived for G_1(1, 2^m) and shifted to every other set
and offset.

`f_split_product` and `g_split_product` are the only definitions of the
products.  What they need per level -- mu(., 2^m) with its fold, the unshifted
G_1(1, 2^m) product and the wrap twist -- depends on the level alone, so a
schedule build passes one `SplitLevels` to every call and each level is
derived once per build; a call without one derives its level afresh.
`SplitLevels.product` is the product of any split, as a schedule build asks
for it.

Every coefficient of a product expression is an int counting halves: the
identities only ever divide by 2, so a `LinearCombo` holds twice each
coefficient and no other number type appears here.
"""

from collections import Counter
from functools import cached_property

from .errors import UsageError
from .invariant_sets import (
    InvariantSetTable, LinearCombo, PartRef, f_part, g_part, locate_pair, part_members,
)
from .period_algebra import product_sets, set_product
from .residues import pair_of, rho


# ---------------------------------------------------------------------------
# F splits


def mu_table(m: int, table: InvariantSetTable) -> tuple[int, ...]:
    """Multiplicities mu(k, 2^m): how often F(k, 2^m) is covered by the product
    of the two halves of any F(j, 2^m).

    For 2^(m+2) <= ng each classified pair product (`product_sets`) of the half
    row G_1 * G_{1+2^m+t*2^(m+1)} in set k adds 1 at mu(rho(k, 2^m)), with no
    set-wide vector; at the bottom level (2^(m+1) == ng) the single product
    G_1 * G_{1+2^m} already carries uniform coefficients on each part.
    """
    ng = table.params.ng
    if not 0 <= m < ng.bit_length() - 1:
        raise UsageError(f"no F split at level m={m} for ng={ng}")
    stride = 1 << m
    if 2 * stride == ng:
        # Part k holds the sets k and k + 2^m.
        coeffs = set_product(1, 1 + stride, table).coeffs
        if coeffs[:stride] != coeffs[stride:]:
            raise AssertionError("product of F halves not part-uniform")
        return coeffs[:stride]
    mu = [0] * stride
    for t in range(ng // (4 * stride)):
        for k in product_sets(1, 1 + stride + t * 2 * stride, table):
            mu[(k - 1) % stride] += 1
    return tuple(mu)


def mu_groups(m: int, table: InvariantSetTable) -> dict[int, tuple[int, ...]]:
    """K(mult, 2^m): the k with mu(k, 2^m) == mult, for each nonzero mult."""
    groups: dict[int, list[int]] = {}
    for k, v in enumerate(mu_table(m, table), start=1):
        if v:
            groups.setdefault(v, []).append(k)
    return {mult: tuple(ks) for mult, ks in sorted(groups.items())}


def _fold_level(mu: tuple[int, ...]) -> int:
    """Uniform part of mu folded into the constant via S = -1: the most
    frequent value (ties broken upward), which zeroes the most terms."""
    counts = Counter(mu)
    best = max(counts.values())
    return max(v for v, c in counts.items() if c == best)


def f_split_product(
    j: int, m: int, table: InvariantSetTable, levels: "SplitLevels | None" = None
) -> LinearCombo:
    """Product of the two halves of F(j, 2^m) over the level-m parts:
    sum_k mu(k,2^m) F(rho(k+j-1, 2^m), 2^m), with the uniform part of mu
    rewritten into the constant.  `levels` shares the level's nonzero terms,
    folded once, across the splits of one build, and each split rotates
    them by j; without it they are derived for this call."""
    stride = 1 << m
    if not 1 <= j <= stride:
        raise ValueError(f"offset {j} out of range [1, {stride}]")
    fold, terms, parts = (levels or SplitLevels(table)).f_level(m)
    # parts[i] is F(i+1, 2^m), so F(rho(k+j-1, 2^m), 2^m) is parts[(k+j-2) % 2^m].
    linear = tuple((c, parts[(k + j - 2) % stride]) for c, k in terms)
    return LinearCombo(constant=-2 * fold, linear=linear, squares=())


# ---------------------------------------------------------------------------
# G splits


def pr_terms(m: int, table: InvariantSetTable) -> tuple[LinearCombo, LinearCombo]:
    """Correction terms for the canonical split of G_1(1, 2^m):

    Pr_M from the middle product of the first-pair row (its two result pairs
    always share a part), Pr_L from the products strictly left of the middle,
    each counted once (the caller doubles them).  Both are expressed over
    level-m parts G_s(rho(pos, 2^m), 2^m).
    """
    params = table.params
    stride = 1 << m
    members = part_members(g_part(1, 1, 2 * stride), table)
    first = members[0]
    mid = len(members) // 2

    def classify(p: int) -> PartRef:
        s, pos = locate_pair(table, p)
        return g_part(s, rho(pos, stride), stride)

    pr_m: list[tuple[int, PartRef]] = []
    pr_l: dict[PartRef, int] = {}
    for t in range(1, len(members)):
        if t > mid:
            break
        q = members[t]
        d = abs(first - q)
        s = first + q
        s = s if s <= params.npairs else params.n - s
        if t == mid:
            ref_d, ref_s = classify(d), classify(s)
            if ref_d != ref_s:
                raise AssertionError("middle product pairs landed in different parts")
            pr_m.append((4, ref_d))
        else:
            for p in (d, s):
                ref = classify(p)
                pr_l[ref] = pr_l.get(ref, 0) + 2

    pm = LinearCombo(0, tuple(pr_m), ())
    pl_terms = tuple(sorted(((c, p) for p, c in pr_l.items()), key=lambda t: t[1]))
    return pm, LinearCombo(0, pl_terms, ())


def g_split_product(
    k: int, s: int, m: int, table: InvariantSetTable, levels: "SplitLevels | None" = None
) -> LinearCombo:
    """Product of the two halves of G_k(s, 2^m):

        (G_k^2(s,2^m) - G_k(rho(s+1,2^m),2^m) - 2^(nu+1-m) - Pr) / 2

    derived once for (k=1, s=1) and then mapped by the set shift k-1 (set
    numbers move by rho(.+k-1, ng)) and the offset shift s-1 (positions move
    by rho(.+s-1, 2^m)).  `levels` shares the (k=1, s=1) product and the wrap
    twist across the splits of one build; without it they are derived for
    this call."""
    params = table.params
    per_set = 1 << params.nu
    stride = 1 << m
    if not (1 <= k <= params.ng and 1 <= s <= stride and 2 * stride <= per_set):
        raise ValueError(f"invalid G split (k={k}, s={s}, stride={stride})")
    levels = levels or SplitLevels(table)
    return shift_g_combo(levels.g_level(m), k - 1, s - 1, table, levels.twist)


def _g_base_product(m: int, table: InvariantSetTable) -> LinearCombo:
    """The product of the halves of G_1(1, 2^m), before any shift, with
    repeated parts merged and zero coefficients dropped."""
    pr_m, pr_l = pr_terms(m, table)
    stride = 1 << m
    linear = Counter({g_part(1, rho(2, stride), stride): -1})
    for c, p in pr_m.linear:
        linear[p] -= c // 2
    for c, p in pr_l.linear:
        linear[p] -= c
    return LinearCombo(
        constant=-(1 << (table.params.nu + 1 - m)),
        linear=tuple((c, p) for p, c in linear.items() if c),
        squares=((1, g_part(1, 1, stride)),),
    )


def wrap_twist(table: InvariantSetTable) -> int:
    """Position twist picked up when a set shift wraps past ng.

    Advancing a set number past ng multiplies all degrees by factor^ng, which
    is congruent to +-2^t mod n; the extra power of two rotates the natural
    order by t positions.
    """
    params = table.params
    if params.ng == 1:
        return 0
    # Set 1 is the doubling orbit of pair 1, in order: 2^t sits at t + 1.
    k, pos = locate_pair(table, pair_of(pow(table.factor, params.ng, params.n), params.n))
    if k != 1:
        raise AssertionError("factor^ng not in the degree orbit of 1")
    return pos - 1


def shift_g_combo(
    combo: LinearCombo, set_shift: int, offset_shift: int, table: InvariantSetTable, twist: int
) -> LinearCombo:
    """Apply the two shift rules to every part of a combo over G parts,
    sorted by part; `twist` is `wrap_twist(table)`.  The shift is a
    bijection on the parts of one stride, so a combo without repeated parts
    (`_g_base_product`) stays without them."""
    ng = table.params.ng

    def move(terms):
        moved = []
        for c, p in terms:
            raw = p.set_index + set_shift
            off = p.offset + offset_shift + twist * ((raw - 1) // ng)
            moved.append((c, g_part(rho(raw, ng), rho(off, p.stride), p.stride)))
        return tuple(sorted(moved, key=lambda t: t[1]))

    return LinearCombo(combo.constant, move(combo.linear), move(combo.squares))


# ---------------------------------------------------------------------------
# Per-build level data


class SplitLevels:
    """The per-level data that the splits of one schedule build share, each
    item derived on first use and then kept for the build: the fold of
    mu(., 2^m), its nonzero terms once folded and the level's parts for
    each F level, the unshifted product of G_1(1, 2^m)'s halves (from
    `pr_terms(m)`) for each G level, the wrap twist, and each distinct
    product term.

    Keyed on the level alone: hashing the table itself would cost more than
    the derivations it saves."""

    def __init__(self, table: InvariantSetTable):
        self.table = table
        self._f: dict[int, tuple] = {}
        self._g: dict[int, LinearCombo] = {}
        self._terms: dict[tuple[int, PartRef], tuple[int, PartRef]] = {}  # each distinct term once

    def product(self, split: PartRef) -> LinearCombo:
        """The product of the halves of `split`, F or G, at its level.  Each
        distinct (halves, part) term is one tuple across the build, as in a
        tower read back from its file."""
        m = split.stride.bit_length() - 1
        if split.kind == "F":
            expr = f_split_product(split.offset, m, self.table, self)
        else:
            expr = g_split_product(split.set_index, split.offset, m, self.table, self)
        terms = self._terms
        return LinearCombo(
            expr.constant,
            tuple(terms.setdefault(t, t) for t in expr.linear),
            tuple(terms.setdefault(t, t) for t in expr.squares),
        )

    def f_level(self, m: int) -> tuple[int, tuple[tuple[int, int], ...], tuple[PartRef, ...]]:
        """(the fold of mu(., 2^m), its terms (2 (mu(k, 2^m) - fold), k) for
        each k where that is not 0, the parts F(1, 2^m) .. F(2^m, 2^m))."""
        if m not in self._f:
            mu = mu_table(m, self.table)
            fold = _fold_level(mu)
            terms = tuple((2 * (v - fold), k) for k, v in enumerate(mu, start=1) if v != fold)
            parts = tuple(f_part(i, 1 << m) for i in range(1, (1 << m) + 1))
            self._f[m] = (fold, terms, parts)
        return self._f[m]

    def g_level(self, m: int) -> LinearCombo:
        if m not in self._g:
            self._g[m] = _g_base_product(m, self.table)
        return self._g[m]

    @cached_property
    def twist(self) -> int:
        return wrap_twist(self.table)
