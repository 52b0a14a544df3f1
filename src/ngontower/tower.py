"""The quadratic-equation DAG: schedules, numeric sign resolution, evaluation.

Each node splits one part into two halves; by Vieta the halves are the roots
of x^2 - (sum) x + (product), where the sum is the parent value and the
product is an integer (or half-integer) combination of earlier parts.  Signs
(which root is which) are decided by direct cosine sums, never taken from the
published lists; evaluation cross-checks every node value against the same
cosine sums, which are independent of the tower arithmetic.

The checks run as one pipeline, `verify.verify_tower`, at the one precision
the tower carries: the optional exact oracle, then `resolve_signs`, which
proves each sign from its node's two halves by `left_is_larger`, the one
sign rule, and checks what a loaded tower stores (signs, and margins and
values to a tolerance that covers their rounding, compared exactly at a
bounded cost whatever a stored exponent is), then `evaluate_tower`.  That
compiles the tower's arithmetic program, the one `compile` writes, runs it
node by node on scaled ints with an error radius, and proves each node's
values from their radius and the cosine sums' bound when its roots land,
and p1 from its radius and 2cos(2 pi / n); it writes the tower's one
`VerificationReport`.  A precision that nobody gives is `default_precision(n)`.

Parts and products are `invariant_sets`' vocabulary.  Only `build_schedule`
derives products, importing `splitting` when it runs, so reading and
checking a stored tower loads no derivation.
"""

from array import array
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from itertools import chain

from .errors import VerificationError
from .invariant_sets import (
    InvariantSetTable, LinearCombo, PartRef, build_invariant_sets, check_part, f_part, g_part,
    split_children,
)
from .rawfloat import cos_sin_fixed, round_raw, to_text
from .residues import FermatParams, rho


# The most mantissa bits a run may ask for, on the command line or in a tower
# header: the cost grows faster than linearly in the bits.  Measured with
# `build --no-oracle` on a 2-vCPU x86-64 host: n = 17 took 1.3 s at 32,768
# bits and 13.8 s at 131,072; n = 257 took 4.4 s and n = 65537 (pruned)
# 98 s with a 210 MB peak at 32,768.
MAX_PRECISION = 1 << 15


def default_precision(n: int) -> int:
    """Mantissa bits for n when no argument or tower header gives them."""
    return 512 if n > 257 else 128


class SignAmbiguous(VerificationError):
    """A split's sign is not proven: its halves' cosine sums differ by no
    more than their error bounds (`left_is_larger`)."""


@dataclass
class QuadraticNode:
    id: int
    step: int
    splits: PartRef
    left: PartRef
    right: PartRef
    sum_source: int | None  # producing node id; None means the literal S = -1
    product_expr: LinearCombo
    left_is_larger: bool | None = None
    # Raw floats (`rawfloat`), as a tower file stores them.
    sign_margin: tuple | None = None  # |left - right| of the exact sums, rounded once
    value_left: tuple | None = None
    value_right: tuple | None = None


@dataclass
class VerificationReport:
    node_count: int
    per_step: dict[int, int]
    # Raw floats (`rawfloat`), each an int a check compared, rounded once.
    max_value_err: tuple | None = None
    max_vieta_err: tuple | None = None
    max_value_radius: tuple | None = None
    min_sign_margin: tuple | None = None
    p1: tuple | None = None
    p1_err: tuple | None = None
    oracle_checked: int = 0


@dataclass
class Tower:
    params: FermatParams
    table: InvariantSetTable
    kind: str
    nodes: list[QuadraticNode]
    precision: int | None = None
    report: VerificationReport | None = None
    # Direct cosine sums at `precision`, set by sign resolution and evaluation.
    cosines: "CosineCache | None" = field(default=None, repr=False, compare=False)

    def p1_part(self) -> PartRef:
        """p1 = G_1(1, 2^nu), the single pair 1; at n = 3 that is S itself."""
        return g_part(1, 1, 1 << self.params.nu)


def _root_part(params: FermatParams) -> PartRef:
    return f_part(1, 1) if params.ng > 1 else g_part(1, 1, 1)


def _producer(part: PartRef, params: FermatParams) -> PartRef:
    """The split whose half `part` is (`part` is not the root)."""
    if part.kind == "G" and part.stride == 1:
        half = params.ng // 2
        return f_part(rho(part.set_index, half), half)
    half = part.stride // 2
    return PartRef(part.kind, rho(part.offset, half), half, part.set_index)


def _step(split: PartRef, params: FermatParams) -> int:
    """Schedule step of a split: F levels first, then G levels."""
    level = split.stride.bit_length()
    return level if split.kind == "F" else params.ng.bit_length() - 1 + level


def _place(
    split: PartRef,
    expr: LinearCombo,
    node_id: int,
    table: InvariantSetTable,
    by_child: dict[PartRef, int | None],
) -> QuadraticNode:
    """The node numbered `node_id` that splits `split` with product `expr`:
    its step, its halves and the id of the earlier node that produced
    `split` (None for the root).  `by_child` maps the root to None and each
    half of the earlier nodes to its node id, and gains this node's halves.
    Raises ValueError when `split` or a part of `expr` is not in `by_child`,
    and when an earlier node already split `split`."""
    if split not in by_child:
        raise ValueError(f"no earlier node produces {split.label()}")
    unproduced = set(expr.referenced_parts()).difference(by_child)
    if unproduced:
        part = next(p for p in expr.referenced_parts() if p in unproduced)
        raise ValueError(f"product names {part.label()}, which no earlier node produces")
    left, right = split_children(split, table)
    if left in by_child:
        raise ValueError(f"{split.label()} is split twice, first by node {by_child[left]}")
    node = QuadraticNode(
        id=node_id,
        step=_step(split, table.params),
        splits=split,
        left=left,
        right=right,
        sum_source=by_child[split],
        product_expr=expr,
    )
    by_child[left] = by_child[right] = node_id
    return node


def schedule_closure(
    params: FermatParams, kind: str, product: Callable[[PartRef], LinearCombo]
) -> dict[PartRef, LinearCombo]:
    """The splits of a `kind` schedule, each with its product expression.

    One demand-driven walk: it starts from the seeds -- full: every bottom G
    split G_k(s, 2^(nu-1)); pruned: G_1(1, 2^(nu-1)), which produces p_1;
    none when there is one pair (n = 3) -- and asks `product` for each split
    it reaches.  A split pushes the producer of the part it splits and of
    every part its product references (the producer of a part is the split
    whose half it is; a whole set G_k comes from F(rho(k, ng/2), ng/2)), so
    the result is the backward dependency closure of the seeds: every split
    for full, and nothing outside what p_1 needs for pruned.  `product` may
    raise to refuse a split.
    """
    if kind not in ("full", "pruned"):
        raise ValueError(f"unknown schedule kind {kind!r}")
    bottom = (1 << params.nu) // 2  # 0 at n = 3, where S is the one pair
    if kind == "full":
        stack = [g_part(k, s, bottom) for k in range(1, params.ng + 1) for s in range(1, bottom + 1)]
    else:
        stack = [g_part(1, 1, bottom)] if bottom else []
    products: dict[PartRef, LinearCombo] = {}
    needed = {_root_part(params)}  # parts whose producer is reached; the root has none
    while stack:
        split = stack.pop()
        if split in products:
            continue
        expr = products[split] = product(split)
        for part in (split, *expr.referenced_parts()):
            if part not in needed:
                needed.add(part)
                stack.append(_producer(part, params))
    return products


def build_schedule(
    params: FermatParams, table: InvariantSetTable, kind: str = "pruned"
) -> Tower:
    """The (unevaluated) node DAG of a `kind` schedule: the splits that
    `schedule_closure` reaches, their products derived by one
    `splitting.SplitLevels` (mu with its fold, the base G product, the wrap
    twist, each distinct term once), ordered by (step, set, offset) and
    numbered by `_place`.  The published pruning lists are only compared
    against, never trusted."""
    from .splitting import SplitLevels

    products = schedule_closure(params, kind, SplitLevels(table).product)
    by_child: dict[PartRef, int | None] = {_root_part(params): None}
    order = sorted(products, key=lambda p: (_step(p, params), p.set_index, p.offset))
    nodes = [
        _place(split, products[split], node_id, table, by_child)
        for node_id, split in enumerate(order)
    ]
    return Tower(params=params, table=table, kind=kind, nodes=nodes)


# ---------------------------------------------------------------------------
# Numeric side: cosine sums, signs, evaluation


class CosineCache:
    """Direct part sums of 2cos(2 pi k / n), held as one sum per invariant set.

    Pair k's entry (its one-pair G part) is 2cos(k theta), an int at scale 2^F,
    theta = 2 pi / n, F = precision + GUARD_BITS.  A set is the orbit of its
    first pair under doubling and 2cos 2a = (2cos a)^2 - 2, so its entries
    are walked at scale 2^W, W = F + ORBIT_BITS: the first from two tables,
    each next by one squaring x <- (x^2 >> W) - 2 2^W; an entry is
    x >> ORBIT_BITS.  With block B = 2^ceil(bits(npairs) / 2) (256 at
    n = 65537), `low[b]` = cos/sin(b theta), b < B, and `high[a]` =
    cos/sin(aB theta), a <= npairs / B, are ints at scale 2^W, each row the
    one before rotated by row 1, the table's one seed, (cos, sin)(theta) and
    (cos, sin)(B theta) correctly rounded at scale 2^W by
    `rawfloat.cos_sin_fixed`; set k starts at (C_a C_b - S_a S_b) >>
    (W - 1) for its first pair aB + b.  Row 1 of `low`, rounded by `row1`,
    also checks p1 and draws the polygon, so these two seeds are every cosine.
    Held: the tables, `set_fixed[k]` (the exact sum of set k's entries), the
    entries of each set a strided G part reads (walked on first use), and
    one int per part read.

    Error bound, in units of 2^-W: row 1 of a table is within 1/2 a
    component, so a rotation's matrix is off by at most sqrt(2)/2, and with
    the floors' sqrt(2) each step adds less than 2.2 to the (cos, sin)
    error: row j is within 2.2 j.  A set's first entry is then within
    4.4 (B + npairs / B) + 1 <= 5 (B + npairs / B), about 2^11 at n = 65537.
    A squaring of an x off by d from 2cos a, |2cos a| <= 2, is off by
    d' <= 4d + d^2 / 2^W + 1, so a 65537 set's 15 squarings end within
    4^15 (2^11 + 1) < 2^42.  ORBIT_BITS must cover 2 (set length - 1) +
    bits(table error) + 2 (43 at n = 65537); then, its floor included, every
    entry is within 2 units of 2^-F.  A part of m pairs is the exact integer
    sum of its m entries, however grouped, so it is within `part_bound`'s
    4m units, 2^-(precision+2) when the guard covers log2(npairs) + 4;
    `part_value` rounds it once to `precision` bits.  The sets only group
    exact sums and no tower arithmetic enters, so the sums stay an
    independent referee of the evaluation.
    """

    GUARD_BITS = 64
    ORBIT_BITS = 64

    def __init__(self, params: FermatParams, table: InvariantSetTable, precision: int):
        self.params = params
        self.table = table
        self.precision = precision
        npairs = params.npairs
        if self.GUARD_BITS < npairs.bit_length() + 4:
            raise AssertionError(f"{self.GUARD_BITS} guard bits do not cover {npairs} pairs")
        self.block = block = 1 << ((npairs.bit_length() + 1) // 2)
        table_bits = (5 * (block + npairs // block)).bit_length()
        if self.ORBIT_BITS < 2 * ((1 << params.nu) - 1) + table_bits + 2:
            raise AssertionError(
                f"{self.ORBIT_BITS} orbit bits do not cover sets of {1 << params.nu} pairs"
            )
        self.scale_bits = precision + self.GUARD_BITS
        self.wide_bits = wide = self.scale_bits + self.ORBIT_BITS
        row1, row_b = (cos_sin_fixed(a, params.n, wide) for a in (1, block))
        self.low = list(_rotations(*row1, block, wide))
        self.high = list(_rotations(*row_b, npairs // block + 1, wide))
        self.set_fixed = [0] + [sum(self._orbit(k)) for k in range(1, params.ng + 1)]
        self._entries: dict[int, list[int]] = {}  # set index -> its entries
        self._part: dict[PartRef, int] = {}

    def _orbit(self, k: int) -> list[int]:
        """Set k's entries in set order, walked from its first pair."""
        wide, two = self.wide_bits, 2 << self.wide_bits
        a, b = divmod(self.table.first_pair(k), self.block)
        (ca, sa), (cb, sb) = self.high[a], self.low[b]
        x = (ca * cb - sa * sb) >> (wide - 1)
        entries = [x >> self.ORBIT_BITS]
        for _ in range((1 << self.params.nu) - 1):
            x = (x * x >> wide) - two
            entries.append(x >> self.ORBIT_BITS)
        return entries

    def _set_entries(self, k: int) -> list[int]:
        entries = self._entries.get(k)
        if entries is None:
            entries = self._entries[k] = self._orbit(k)
        return entries

    def part_fixed(self, part: PartRef) -> int:
        """The exact sum of the part's entries, at scale 2^scale_bits."""
        total = self._part.get(part)
        if total is None:
            check_part(part, self.params)
            if part.kind == "F":
                total = sum(self.set_fixed[part.offset :: part.stride])
            elif part.stride == 1:
                total = self.set_fixed[part.set_index]
            else:
                total = sum(self._set_entries(part.set_index)[part.offset - 1 :: part.stride])
            self._part[part] = total
        return total

    def row1(self, bits: int) -> tuple[int, int]:
        """(cos, sin)(theta), `low[1]`, rounded to nearest at scale 2^bits, bits < W."""
        shift = self.wide_bits - bits - 1
        return tuple((x >> shift) + 1 >> 1 for x in self.low[1])

    def part_bound(self, part: PartRef) -> int:
        """4 m, the bound on `part_fixed`'s error for a part of m pairs."""
        return 4 * (self.params.npairs if part.kind == "F" else 1 << self.params.nu) // part.stride

    def part_value(self, part: PartRef) -> tuple:
        """`part_fixed` as a raw float, rounded once to `precision` bits."""
        return round_raw(self.part_fixed(part), self.scale_bits, self.precision)


def _rotations(c1: int, s1: int, count: int, scale: int) -> Iterator[tuple[int, int]]:
    """cos/sin(j a), j < count, as ints at scale 2^scale, from those of a,
    (c1, s1): row 1 is that pair, each next row the one before rotated by it."""
    c, s = 1 << scale, 0
    for _ in range(count):
        yield c, s
        c, s = (c * c1 - s * s1) >> scale, (s * c1 + c * s1) >> scale


def _farther_than(stored: tuple, ref: int, scale: int, tol_bits: int) -> bool:
    """Whether the raw float `stored` lies further than T = 2^tol_bits units
    of 2^-scale from ref 2^-scale, tol_bits >= 0, decided exactly in ints of
    bounded size whatever its exponent.  With stored 2^scale = f + r, f an
    int and 0 <= r < 1, and g = f - ref: it is further iff g > T, g < -T,
    or g = T and r > 0.  A stored value of 2^(e + scale) or more in size,
    e + scale > max(bits(ref), tol_bits), is further at once; below a unit,
    f is 0 or -1 without shifting past its mantissa."""
    sign, man, exp, bc = stored
    shift = exp + scale
    if man and shift > max(ref.bit_length(), tol_bits):
        return True
    value = -man if sign else man
    if shift >= 0:
        whole, rest = value << shift, 0
    else:
        cut = min(-shift, bc + 1)  # past the mantissa, f is 0 or -1 and r > 0
        whole, rest = value >> cut, man & ((1 << cut) - 1)
    gap, tol = whole - ref, 1 << tol_bits
    return gap > tol or gap < -tol or (gap == tol and rest > 0)


def left_is_larger(
    left: PartRef, right: PartRef, cache: CosineCache, node_id: int | None = None
) -> bool:
    """Whether `left`, one half of a split, has a larger cosine sum than
    `right`, the other, proven: the two sums must differ by more than the
    sum of their error bounds (`part_bound`), or SignAmbiguous is raised,
    naming `node_id` when one is given.  Every sign is decided by this test."""
    lf, rf = cache.part_fixed(left), cache.part_fixed(right)
    bound = cache.part_bound(left) + cache.part_bound(right)
    if abs(lf - rf) <= bound:
        raise SignAmbiguous(
            f"halves {left.label()} and {right.label()}: cosine sums differ by {abs(lf - rf)} "
            f"units of 2^-{cache.scale_bits}, within their bound {bound}; raise the precision",
            node_id,
        )
    return lf > rf


def resolve_signs(tower: Tower) -> Tower:
    """Decide which side of every split is larger, by direct cosine sums at
    the tower's precision, each sign proven by `left_is_larger`.

    Each margin is the exact |left - right| of the two sums, the int that
    `left_is_larger` compared, rounded once to the precision and kept on
    the node.  What a node already stores (a loaded tower) is
    checked, not trusted: a sign that disagrees raises VerificationError,
    and so does a margin or a value further from the exact |left - right|
    and sums than the tolerance: 2^-(p//2), or two units in the p-th bit of
    the larger sum when that is more, which covers a p-bit rounding of a
    value or the margin.  The comparison is exact (a difference of exactly
    the tolerance passes) and of bounded cost whatever the stored exponent
    (`_farther_than`).  Margins are kept as raw floats (`rawfloat`).
    """
    precision = tower.precision
    cache = CosineCache(tower.params, tower.table, precision)
    scale = cache.scale_bits
    for node in tower.nodes:
        lf, rf = cache.part_fixed(node.left), cache.part_fixed(node.right)
        larger = left_is_larger(node.left, node.right, cache, node.id)
        diff = abs(lf - rf)
        margin = round_raw(diff, scale, precision)
        if node.left_is_larger is not None and node.left_is_larger != larger:
            raise VerificationError(
                f"stored left_is_larger={node.left_is_larger} but cosine sums give "
                f"{larger} (margin {to_text(margin)})",
                node.id,
            )
        tol_bits = max(scale - precision // 2, max(abs(lf), abs(rf)).bit_length() + 1 - precision)
        for name, stored, ref in (
            ("sign_margin", node.sign_margin, diff),
            ("value_left", node.value_left, lf),
            ("value_right", node.value_right, rf),
        ):
            if stored is not None and _farther_than(stored, ref, scale, tol_bits):
                raise VerificationError(
                    f"stored {name} {to_text(stored, 25)} but cosine sums give "
                    f"{to_text(round_raw(ref, scale), 25)}",
                    node.id,
                )
        node.left_is_larger = larger
        node.sign_margin = margin
    tower.cosines = cache
    return tower


def evaluate_tower(tower: Tower) -> tuple:
    """Compile the tower's arithmetic program (`arith.compile_to_arith`)
    and run it one node at a time, with the signs, precision and cosine sums
    that `resolve_signs` left, and store its values on the nodes, each
    rounded once to `precision` bits.  Each node is checked in ints when its
    roots land: a value v with radius r at scale 2^F and its part's sum T of
    m entries at scale 2^S must meet |v 2^(S-F) - T| <= r 2^(S-F) + 4m.
    Then every value whose last reader ran in the node's segment is
    dropped, found among the segment's own instructions and its operand
    columns, so only the values that a later instruction reads are held;
    last p1, cos and sin run, and p1's value v and radius r at scale 2^F
    must meet |v - c| <= r + 1, c = 2cos(2 pi / n) 2^F from the cosine
    table's row 1 (scale 2^W), rounded by `row1`: within 1/2 + 2^-(W-F-1) < 1.
    Each number the report carries is an int that a check compared,
    rounded once to `precision` bits: p1_err is |v - c|.
    The cosine sums read only each invariant set's start; Euler's criterion
    on the factor proves that the starts partition the pairs, so the pair
    table, whose walk checks that again on its first read, is not walked
    here.  Writes the tower's report; returns the program and the proven
    sign (-1, 0 or 1) of each of its instruction values; no value outlives
    the run."""
    from .arith import RUN_GUARD_BITS, NegativeRadicand, _run, compile_to_arith, proven_signs

    cache = tower.cosines
    if cache is None:
        raise ValueError("tower signs must be resolved before evaluating")
    precision = tower.precision
    scale = precision + RUN_GUARD_BITS  # F
    shift = cache.scale_bits - scale  # S - F
    prog = compile_to_arith(tower)
    # The last instruction that reads each one, 0 for none; an absent
    # operand, -1, names the extra slot, marked as read past every segment
    # so that no drop below reaches vals[-1].
    last = array("i", bytes(4 * len(prog.ops) + 4))
    for i, x, y in zip(range(len(prog.ops)), prog.a, prog.b):
        last[x] = last[y] = i
    last[-1] = len(prog.ops)
    vals, rads, signs = [], [], array("b")
    worst = [0, 0, 0]  # |v 2^(S-F) - T| (2^-S), Vieta residual (2^-2F), radius (2^-F)
    k = first = 0
    try:
        for k, (prod, _, left, right) in enumerate(prog.nodes):
            end = max(left, right) + 1  # one past the node's second root
            _run(prog, first, end, vals, rads, scale)
            signs.extend(proven_signs(vals, rads, first))
            node = tower.nodes[k]
            node.value_left = round_raw(vals[left], scale, precision)
            node.value_right = round_raw(vals[right], scale, precision)
            for part, i in ((node.left, left), (node.right, right)):
                err = abs((vals[i] << shift) - cache.part_fixed(part))
                if err > (rads[i] << shift) + cache.part_bound(part):
                    value, ref = round_raw(vals[i], scale, precision), cache.part_value(part)
                    miss = round_raw(err, cache.scale_bits, precision)
                    raise VerificationError(
                        f"{part.label(tower.table)} = {to_text(value, 25)} but cosine sum "
                        f"gives {to_text(ref, 25)} (err {to_text(miss)})"
                    )
                worst[0], worst[2] = max(worst[0], err), max(worst[2], rads[i])
            worst[1] = max(worst[1], abs(vals[left] * vals[right] - (vals[prod] << scale)))
            # Drop each value whose last reader has run: the segment's
            # own, and the earlier ones that its operands name.
            for i in chain(range(first, end), prog.a[first:end], prog.b[first:end]):
                if last[i] < end:
                    vals[i] = rads[i] = None
            first = end
        k = len(prog.nodes)
        _run(prog, first, len(prog.ops), vals, rads, scale)  # p1, cos and the sin(theta) SQRT
        signs.extend(proven_signs(vals, rads, first))
    except VerificationError as exc:  # a radicand, a sign or a check, of node k or the outputs
        node_id = tower.nodes[k].id if k < len(tower.nodes) else None
        message = str(exc)
        if isinstance(exc, NegativeRadicand):
            x, what = exc.radicand, "sin(2pi/n)^2 =" if node_id is None else "discriminant"
            message = f"negative {what} {to_text(x)}" if x[0] else (
                f"{what} {to_text(x)} not proven positive"
            )
        raise VerificationError(message, node_id) from None
    p1, r = vals[prog.outputs["p1"]], rads[prog.outputs["p1"]]
    gap = abs(p1 - cache.row1(scale + 1)[0])
    if gap > r + 1:
        raise VerificationError(f"p1 misses 2cos(2pi/n) by {gap} units of 2^-{scale}, radius {r}")
    margin = min(
        (abs(cache.part_fixed(node.left) - cache.part_fixed(node.right)) for node in tower.nodes),
        default=None,
    )
    tower.report = VerificationReport(
        node_count=len(tower.nodes),
        per_step=dict(sorted(Counter(node.step for node in tower.nodes).items())),
        max_value_err=round_raw(worst[0], cache.scale_bits, precision),
        max_vieta_err=round_raw(worst[1], 2 * scale, precision),
        max_value_radius=round_raw(worst[2], scale, precision),
        min_sign_margin=None if margin is None else round_raw(margin, cache.scale_bits, precision),
        p1=round_raw(p1, scale, precision),
        p1_err=round_raw(gap, scale, precision),
    )
    return prog, signs


def build_tower(
    n: int,
    kind: str = "pruned",
    precision: int | None = None,
    factor: int = 3,
) -> Tower:
    """Convenience: schedule, signs and evaluation (`verify_tower` without the oracle)."""
    params = FermatParams.from_n(n)
    table = build_invariant_sets(params, factor=factor)
    tower = build_schedule(params, table, kind)
    tower.precision = default_precision(n) if precision is None else precision
    resolve_signs(tower)
    evaluate_tower(tower)
    return tower
