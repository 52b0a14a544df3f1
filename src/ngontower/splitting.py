"""Parts of S and their split products.

Two families of parts are split on the way from S down to p_1:

  F(j, 2^m)      every 2^m-th invariant set starting at G_j;
  G_k(j, 2^m)    every 2^m-th pair of set k starting at natural position j.

For every split the sum of the two children is the parent, so only the product
needs an expression over already-computed parts.  F-split products come from
the multiplicity table mu(k, 2^m); G-split products come from the squares
identity with the correction term Pr = Pr_M + 2*Pr_L, derived for G_1(1, 2^m)
and shifted to every other set and offset.

`f_split_product` and `g_split_product` are the only definitions of the
products.  What they need per level -- mu(., 2^m) with its fold, the unshifted
G_1(1, 2^m) product and the wrap twist -- depends on the level alone, so a
schedule build passes one `SplitLevels` to every call and each level is
derived once per build; a call without one derives its level afresh.

`part_pairs` reads the pair numbers of a part straight from the table's int64
set array.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .invariant_sets import InvariantSetTable, locate_pair
from .period_algebra import set_product, set_square
from .residues import rho


@dataclass(frozen=True, order=True)
class PartRef:
    """A part of S.  kind "F": offset = starting set index; kind "G": the
    set index plus the starting pair position.  A G part whose stride equals
    the pair count of a set is a single pair."""

    kind: str  # "F" or "G"
    offset: int
    stride: int
    set_index: int = 0

    def label(self, table: InvariantSetTable | None = None) -> str:
        if self.kind == "F":
            if self.stride == 1:
                return "S"
            return f"F({self.offset},{self.stride})"
        if self.stride == 1:
            return f"G{self.set_index}"
        if table is not None and self.is_single_pair(table.params):
            return f"p{self.pair_number(table)}"
        return f"G{self.set_index}({self.offset},{self.stride})"

    def is_single_pair(self, params) -> bool:
        return self.kind == "G" and self.stride == (1 << params.nu)

    def pair_number(self, table: InvariantSetTable) -> int:
        assert self.is_single_pair(table.params)
        return table.sets[self.set_index - 1][self.offset - 1]


@dataclass(frozen=True)
class LinearCombo:
    """constant + sum coeff*part + sum coeff*part^2 with exact coefficients
    (denominators never exceed 2; halves arise from the squares identities)."""

    constant: Fraction
    linear: tuple[tuple[Fraction, PartRef], ...]
    squares: tuple[tuple[Fraction, PartRef], ...]

    def referenced_parts(self) -> list[PartRef]:
        return [p for _, p in self.linear] + [p for _, p in self.squares]

    def render(self, table: InvariantSetTable | None = None) -> str:
        def fmt(c: Fraction) -> str:
            return str(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

        bits = []
        if self.constant or not (self.linear or self.squares):
            bits.append(fmt(self.constant))
        for c, p in self.squares:
            bits.append(f"{fmt(c)}*{p.label(table)}^2")
        for c, p in self.linear:
            bits.append(f"{fmt(c)}*{p.label(table)}")
        return " + ".join(bits).replace("+ -", "- ")


def f_part(j: int, stride: int) -> PartRef:
    return PartRef(kind="F", offset=j, stride=stride)


def g_part(k: int, j: int, stride: int) -> PartRef:
    return PartRef(kind="G", offset=j, stride=stride, set_index=k)


def _check_part(p: PartRef, params) -> None:
    if p.kind == "F":
        if not (1 <= p.offset <= p.stride and params.ng % p.stride == 0):
            raise ValueError(f"invalid F part {p}")
        return
    per_set = 1 << params.nu
    if not (1 <= p.offset <= p.stride and per_set % p.stride == 0):
        raise ValueError(f"invalid G part {p}")


def part_members(p: PartRef, table: InvariantSetTable) -> tuple[int, ...]:
    """Set indices of an F part / pair numbers of a G part."""
    _check_part(p, table.params)
    if p.kind == "F":
        return tuple(range(p.offset, table.params.ng + 1, p.stride))
    return table.sets[p.set_index - 1][p.offset - 1 :: p.stride]


def part_pairs(p: PartRef, table: InvariantSetTable) -> np.ndarray:
    """All pair numbers covered by the part, in member order, as an int64
    array read from `table.set_array` (a read-only view where possible)."""
    _check_part(p, table.params)
    if p.kind == "F":
        return table.set_array[p.offset - 1 :: p.stride].ravel()
    return table.set_array[p.set_index - 1, p.offset - 1 :: p.stride]


def split_children(p: PartRef, table: InvariantSetTable) -> tuple[PartRef, PartRef]:
    """The two halves of a part: same kind, doubled stride."""
    if p.kind == "F":
        if 2 * p.stride > table.params.ng:
            raise ValueError(f"{p} has no further F split")
        return f_part(p.offset, 2 * p.stride), f_part(p.offset + p.stride, 2 * p.stride)
    if 2 * p.stride > (1 << table.params.nu):
        raise ValueError(f"{p} is a single pair")
    return (
        g_part(p.set_index, p.offset, 2 * p.stride),
        g_part(p.set_index, p.offset + p.stride, 2 * p.stride),
    )


# ---------------------------------------------------------------------------
# F splits


def mu_table(m: int, table: InvariantSetTable) -> tuple[int, ...]:
    """Multiplicities mu(k, 2^m): how often F(k, 2^m) is covered by the product
    of the two halves of any F(j, 2^m).

    For 2^(m+2) <= ng this tallies the half row of products
    G_1 * G_{1+2^m+t*2^(m+1)}; at the bottom level (2^(m+1) == ng) the single
    product G_1 * G_{1+2^m} already carries uniform coefficients on each part.
    """
    ng = table.params.ng
    if not 0 <= m < ng.bit_length() - 1:
        raise ValueError(f"no F split at level m={m} for ng={ng}")
    stride = 1 << m
    mu = [0] * stride
    if 2 * stride == ng:
        comb = set_product(1, 1 + stride, table)
        for k in range(1, stride + 1):
            vals = {comb.coeffs[l - 1] for l in range(k, ng + 1, stride)}
            if len(vals) != 1:
                raise AssertionError(f"product of F halves not part-uniform at k={k}")
            mu[k - 1] = vals.pop()
        return tuple(mu)
    for t in range(ng // (4 * stride)):
        comb = set_product(1, 1 + stride + t * 2 * stride, table)
        for l, c in comb.terms():
            mu[rho(l, stride) - 1] += c
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
    rewritten into the constant.  `levels` shares mu and its fold across the
    splits of one build; without it they are derived for this call."""
    stride = 1 << m
    if not 1 <= j <= stride:
        raise ValueError(f"offset {j} out of range [1, {stride}]")
    mu, fold, parts = (levels or SplitLevels(table)).f_level(m)
    # parts[i] is F(i+1, 2^m), so F(rho(k+j-1, 2^m), 2^m) is parts[(k+j-2) % 2^m].
    linear = tuple(
        (Fraction(v - fold), parts[(k + j - 2) % stride])
        for k, v in enumerate(mu, start=1)
        if v != fold
    )
    return LinearCombo(constant=Fraction(-fold), linear=linear, squares=())


def f_split_product_squares(j: int, m: int, table: InvariantSetTable) -> LinearCombo:
    """Same product via the squares identity:
    (F^2(j,2^m) - Q1 - Pr1) / 2, expressed over level-m parts.

    Q1 collects the squares of all sets in F(j,2^m) (classified from one set
    square), Pr1 the doubled cross products inside each half (classified from
    the half row with the middle product counted once).
    """
    ng = table.params.ng
    stride = 1 << m
    if not 1 <= j <= stride:
        raise ValueError(f"offset {j} out of range [1, {stride}]")
    if 2 * stride > ng:
        raise ValueError(f"no F split below stride {stride} for ng={ng}")
    gamma = [Fraction(0)] * stride

    for l, c in set_square(1, table).terms():
        gamma[rho(l, stride) - 1] += c

    # Cross products G_1 * G_{1+t*2^(m+1)}: t below the middle counts twice.
    row_len = ng // (2 * stride)  # sets per half
    mid = row_len // 2
    for t in range(1, row_len):
        if t > mid:
            break
        comb = set_product(1, 1 + t * 2 * stride, table)
        weight = 1 if t == mid else 2
        for l, c in comb.terms():
            gamma[rho(l, stride) - 1] += weight * c

    linear = tuple(
        (Fraction(-g, 2), f_part(rho(k + j - 1, stride), stride))
        for k, g in enumerate(gamma, start=1)
        if g
    )
    constant = Fraction(-(table.params.n - 1), 2 * stride)
    return LinearCombo(
        constant=constant,
        linear=linear,
        squares=((Fraction(1, 2), f_part(j, stride)),),
    )


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

    pr_m: list[tuple[Fraction, PartRef]] = []
    pr_l: dict[PartRef, Fraction] = {}
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
            pr_m.append((Fraction(2), ref_d))
        else:
            for p in (d, s):
                ref = classify(p)
                pr_l[ref] = pr_l.get(ref, Fraction(0)) + 1

    pm = LinearCombo(Fraction(0), tuple(pr_m), ())
    pl_terms = tuple(sorted(((c, p) for p, c in pr_l.items()), key=lambda t: t[1]))
    return pm, LinearCombo(Fraction(0), pl_terms, ())


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
    """The product of the halves of G_1(1, 2^m), before any shift."""
    pr_m, pr_l = pr_terms(m, table)
    stride = 1 << m
    linear: list[tuple[Fraction, PartRef]] = [
        (Fraction(-1, 2), g_part(1, rho(2, stride), stride))
    ]
    for c, p in pr_m.linear:
        linear.append((-c / 2, p))
    for c, p in pr_l.linear:
        linear.append((-c, p))
    return LinearCombo(
        constant=Fraction(-(1 << (table.params.nu + 1 - m)), 2),
        linear=tuple(linear),
        squares=((Fraction(1, 2), g_part(1, 1, stride)),),
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
    q = pow(table.factor, params.ng, params.n)
    d = 1
    for t in range(1 << params.nu):
        if q == d or q == params.n - d:
            return t
        d = (2 * d) % params.n
    raise AssertionError("factor^ng not in the degree orbit of 1")


def shift_g_combo(
    combo: LinearCombo,
    set_shift: int,
    offset_shift: int,
    table: InvariantSetTable,
    twist: int | None = None,
) -> LinearCombo:
    """Apply the two shift rules to every G part of a combo; `twist` is
    `wrap_twist(table)`, derived here when not given."""
    ng = table.params.ng
    if twist is None:
        twist = wrap_twist(table)

    def move(p: PartRef) -> PartRef:
        if p.kind != "G":
            return p
        raw = p.set_index + set_shift
        off = p.offset + offset_shift + twist * ((raw - 1) // ng)
        return g_part(rho(raw, ng), rho(off, p.stride), p.stride)

    def merge(terms):
        acc: dict[PartRef, Fraction] = {}
        for c, p in terms:
            q = move(p)
            acc[q] = acc[q] + c if q in acc else c
        return tuple(sorted(((c, p) for p, c in acc.items() if c), key=lambda t: t[1]))

    return LinearCombo(combo.constant, merge(combo.linear), merge(combo.squares))


# ---------------------------------------------------------------------------
# Per-build level data


class SplitLevels:
    """The per-level data that the splits of one schedule build share, each
    item derived on first use and then kept for the build: mu(., 2^m) with
    its fold and the level's parts for each F level, the unshifted product of
    G_1(1, 2^m)'s halves (from `pr_terms(m)`) for each G level, and the wrap
    twist.

    Keyed on the level alone: hashing the table itself would cost more than
    the derivations it saves."""

    def __init__(self, table: InvariantSetTable):
        self.table = table
        self._f: dict[int, tuple] = {}
        self._g: dict[int, LinearCombo] = {}

    def f_level(self, m: int) -> tuple[tuple[int, ...], int, tuple[PartRef, ...]]:
        """(mu(., 2^m), its fold, the parts F(1, 2^m) .. F(2^m, 2^m))."""
        if m not in self._f:
            mu = mu_table(m, self.table)
            parts = tuple(f_part(i, 1 << m) for i in range(1, (1 << m) + 1))
            self._f[m] = (mu, _fold_level(mu), parts)
        return self._f[m]

    def g_level(self, m: int) -> LinearCombo:
        if m not in self._g:
            self._g[m] = _g_base_product(m, self.table)
        return self._g[m]

    @cached_property
    def twist(self) -> int:
        return wrap_twist(self.table)
