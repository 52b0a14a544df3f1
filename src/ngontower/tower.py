"""The quadratic-equation DAG: schedules, numeric sign resolution, evaluation.

Each node splits one part into two halves; by Vieta the halves are the roots
of x^2 - (sum) x + (product), where the sum is the parent value and the
product is an integer (or half-integer) combination of earlier parts.  Signs
(which root is which) are decided by direct cosine sums, never taken from the
published lists; evaluation cross-checks every node value against the same
cosine sums, which are independent of the tower arithmetic.
"""

from dataclasses import dataclass, field
import mpmath as mp
import numpy as np

from .invariant_sets import InvariantSetTable, build_invariant_sets
from .residues import FermatParams, rho
from .splitting import (
    LinearCombo,
    PartRef,
    SplitLevels,
    f_part,
    f_split_product,
    g_part,
    g_split_product,
    part_pairs,
    split_children,
)


class SignAmbiguous(RuntimeError):
    """Two sides of a split are numerically too close at the working precision."""


class VerificationFailure(RuntimeError):
    """A node value disagrees with its direct cosine sum (or a radicand went
    negative), signalling a wrong coefficient or sign upstream."""

    def __init__(self, node_id: int, message: str):
        super().__init__(f"node {node_id}: {message}")
        self.node_id = node_id


class NonIntegralSolution(RuntimeError):
    """The linear system for the multiplicities did not round cleanly."""


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
    sign_margin: object = None  # mpf lower bound on |left - right|
    value_left: object = None
    value_right: object = None


@dataclass
class VerificationReport:
    node_count: int
    per_step: dict[int, int]
    max_value_err: object = None
    max_vieta_err: object = None
    min_sign_margin: object = None
    p1: object = None
    p1_err: object = None
    oracle_checked: int = 0
    messages: list[str] = field(default_factory=list)


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
        if self.params.npairs == 1:
            raise ValueError("n=3 has no splits; p1 equals S")
        return g_part(1, 1, 1 << self.params.nu)

    def part_values(self) -> dict[PartRef, object]:
        """Part -> evaluated value, replayed from stored node values."""
        values = {_root_part(self.params): mp.mpf(-1)}
        for node in self.nodes:
            values[node.left] = node.value_left
            values[node.right] = node.value_right
        return values


def _root_part(params: FermatParams) -> PartRef:
    return f_part(1, 1) if params.ng > 1 else g_part(1, 1, 1)


def _canonical_child(child: PartRef, params: FermatParams) -> PartRef:
    # A single-set F part and the whole-set G part are the same object; the
    # expressions emitted by the G splits use the G form.
    if child.kind == "F" and child.stride == params.ng:
        return g_part(child.offset, 1, 1)
    return child


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


def build_schedule(
    params: FermatParams, table: InvariantSetTable, kind: str = "pruned"
) -> Tower:
    """Assemble the (unevaluated) node DAG by one demand-driven walk.

    The walk starts from its seeds -- full: every split of every F level and
    every G level; pruned: the split that produces p_1 -- and builds a node
    for each split it reaches.  A node pushes the producer of the part it
    splits and of every part its product expression references (the producer
    of a part is the split whose half it is; a whole set G_k comes from
    F(rho(k, ng/2), ng/2)), so pruned is the backward dependency closure of
    p_1 and nothing outside it is derived.  The per-level tables the products
    need (mu with its fold, the base G product, the wrap twist) come from one
    `SplitLevels` shared by the build.  The nodes are then ordered by (step,
    set, offset) and numbered, and each gets the id of its sum's producer.
    The published pruning lists are only compared against, never trusted.
    """
    if kind not in ("full", "pruned"):
        raise ValueError(f"unknown schedule kind {kind!r}")
    if params.npairs == 1:
        return Tower(params=params, table=table, kind=kind, nodes=[])
    levels = SplitLevels(table)
    if kind == "full":
        f_levels = params.ng.bit_length() - 1
        stack = [f_part(j, 1 << m) for m in range(f_levels) for j in range(1, (1 << m) + 1)]
        stack += [
            g_part(k, s, 1 << m)
            for m in range(params.nu)
            for k in range(1, params.ng + 1)
            for s in range(1, (1 << m) + 1)
        ]
    else:
        stack = [g_part(1, 1, 1 << (params.nu - 1))]

    root = _root_part(params)
    products: dict[PartRef, LinearCombo] = {}
    needed = {root}  # parts whose producer is built or on the stack; the root has none
    while stack:
        split = stack.pop()
        if split in products:
            continue
        m = split.stride.bit_length() - 1
        if split.kind == "F":
            expr = f_split_product(split.offset, m, table, levels)
        else:
            expr = g_split_product(split.set_index, split.offset, m, table, levels)
        products[split] = expr
        for part in (split, *expr.referenced_parts()):
            if part not in needed:
                needed.add(part)
                stack.append(_producer(part, params))

    nodes: list[QuadraticNode] = []
    by_child: dict[PartRef, int] = {}
    for split in sorted(products, key=lambda p: (_step(p, params), p.set_index, p.offset)):
        expr = products[split]
        for part in (split, *expr.referenced_parts()):
            if part not in by_child and part != root:
                raise AssertionError(f"part {part} has no earlier producer")
        left, right = (_canonical_child(c, params) for c in split_children(split, table))
        node_id = len(nodes)
        nodes.append(
            QuadraticNode(
                id=node_id,
                step=_step(split, params),
                splits=split,
                left=left,
                right=right,
                sum_source=by_child.get(split),
                product_expr=expr,
            )
        )
        by_child[left] = by_child[right] = node_id
    return Tower(params=params, table=table, kind=kind, nodes=nodes)


# ---------------------------------------------------------------------------
# Numeric side: cosine sums, signs, evaluation


class CosineCache:
    """Direct values 2cos(2 pi k / n) for every pair, plus part sums.

    The angle is reduced exactly as 2 pi k / n with the pi constant at working
    precision, keeping the cross-check independent of the tower arithmetic.
    """

    def __init__(self, params: FermatParams, table: InvariantSetTable, precision: int):
        self.params = params
        self.table = table
        self.precision = precision
        with mp.workprec(precision):
            two_pi_over_n = 2 * mp.pi / params.n
            self.pair_values = [None] + [
                2 * mp.cos(k * two_pi_over_n) for k in range(1, params.npairs + 1)
            ]
        self._part: dict[PartRef, object] = {}

    def part_value(self, part: PartRef):
        cached = self._part.get(part)
        if cached is None:
            with mp.workprec(self.precision):
                pairs = part_pairs(part, self.table).tolist()
                cached = mp.fsum(self.pair_values[p] for p in pairs)
            self._part[part] = cached
        return cached


def resolve_signs(tower: Tower, precision: int) -> Tower:
    """Decide which side of every split is larger, by direct cosine sums.

    A sign already stored on a node (a loaded tower) is checked, not
    replaced: one that disagrees raises VerificationFailure.
    """
    cache = CosineCache(tower.params, tower.table, precision)
    threshold = mp.mpf(2) ** (-(precision // 4))
    with mp.workprec(precision):
        for node in tower.nodes:
            lv = cache.part_value(node.left)
            rv = cache.part_value(node.right)
            margin = abs(lv - rv)
            if margin < threshold:
                raise SignAmbiguous(
                    f"node {node.id} ({node.splits.label()}): margin {mp.nstr(margin)} "
                    f"below 2^-{precision // 4}; raise the precision"
                )
            larger = lv > rv
            if node.left_is_larger is not None and node.left_is_larger != larger:
                raise VerificationFailure(
                    node.id,
                    f"stored left_is_larger={node.left_is_larger} but cosine sums give "
                    f"{larger} (margin {mp.nstr(margin)})",
                )
            node.left_is_larger = larger
            node.sign_margin = margin
    tower.precision = precision
    tower.cosines = cache
    return tower


def _combo_value(combo: LinearCombo, values: dict[PartRef, object]):
    total = mp.mpf(combo.constant.numerator) / combo.constant.denominator
    for c, p in combo.linear:
        total += mp.mpf(c.numerator) / c.denominator * values[p]
    for c, p in combo.squares:
        total += mp.mpf(c.numerator) / c.denominator * values[p] ** 2
    return total


def evaluate_tower(tower: Tower, precision: int | None = None) -> Tower:
    """Top-down evaluation with the signs stored on the nodes; every node
    value is cross-checked against its direct cosine sum within
    2^(-precision/2)."""
    if precision is None:
        precision = tower.precision
    if any(node.left_is_larger is None for node in tower.nodes):
        raise ValueError("tower signs must be resolved before evaluating")
    cache = tower.cosines
    if cache is None or cache.precision != precision:
        cache = tower.cosines = CosineCache(tower.params, tower.table, precision)
    tower.precision = precision
    tol = mp.mpf(2) ** (-(precision // 2))
    report = VerificationReport(
        node_count=len(tower.nodes),
        per_step=_per_step(tower.nodes),
        max_value_err=mp.mpf(0),
        max_vieta_err=mp.mpf(0),
        min_sign_margin=None,
    )
    with mp.workprec(precision):
        values = {_root_part(tower.params): mp.mpf(-1)}
        for node in tower.nodes:
            sum_v = values[node.splits]
            prod_v = _combo_value(node.product_expr, values)
            half = sum_v / 2
            disc = half * half - prod_v
            if disc < 0:
                raise VerificationFailure(node.id, f"negative discriminant {mp.nstr(disc)}")
            sq = mp.sqrt(disc)
            bigger, smaller = half + sq, half - sq
            if node.left_is_larger:
                node.value_left, node.value_right = bigger, smaller
            else:
                node.value_left, node.value_right = smaller, bigger
            for part, v in ((node.left, node.value_left), (node.right, node.value_right)):
                ref = cache.part_value(part)
                err = abs(v - ref)
                if err > tol:
                    raise VerificationFailure(
                        node.id,
                        f"{part.label(tower.table)} = {mp.nstr(v, 25)} but cosine sum "
                        f"gives {mp.nstr(ref, 25)} (err {mp.nstr(err)})",
                    )
                report.max_value_err = max(report.max_value_err, err)
                values[part] = v
            vieta = abs(node.value_left * node.value_right - prod_v)
            report.max_vieta_err = max(report.max_vieta_err, vieta)
            if report.min_sign_margin is None or node.sign_margin < report.min_sign_margin:
                report.min_sign_margin = node.sign_margin

        if tower.params.npairs == 1:
            p1 = mp.mpf(-1)
        else:
            p1 = values[tower.p1_part()]
        report.p1 = p1
        report.p1_err = abs(p1 - 2 * mp.cos(2 * mp.pi / tower.params.n))
    tower.report = report
    return tower


def _per_step(nodes) -> dict[int, int]:
    counts: dict[int, int] = {}
    for node in nodes:
        counts[node.step] = counts.get(node.step, 0) + 1
    return dict(sorted(counts.items()))


def build_tower(
    n: int,
    kind: str = "pruned",
    precision: int | None = None,
    factor: int = 3,
    assume_prime: bool = False,
) -> Tower:
    """Convenience: schedule, signs, evaluation, verification in one call."""
    params = FermatParams.from_n(n, assume_prime=assume_prime)
    if precision is None:
        precision = 512 if n > 257 else 128
    table = build_invariant_sets(params, factor=factor)
    tower = build_schedule(params, table, kind)
    if tower.nodes:
        resolve_signs(tower, precision)
    else:
        tower.precision = precision
        tower.report = VerificationReport(node_count=0, per_step={})
        with mp.workprec(precision):
            tower.report.p1 = mp.mpf(-1)
            tower.report.p1_err = abs(mp.mpf(-1) - 2 * mp.cos(2 * mp.pi / n))
        return tower
    return evaluate_tower(tower, precision)


# ---------------------------------------------------------------------------
# Multiplicity recovery from numeric values (no symbolic products involved)


def mu_via_linear_system(level_values, sibling_products) -> tuple[int, ...]:
    """Solve the circulant system sum_k F(rho(k+j-1, L), L) * mu_k = product_j
    for the multiplicities, and round to integers.

    level_values are the L part values F(1, L)..F(L, L); sibling_products the
    numeric products of the two halves of each F(j, L).  Raises
    NonIntegralSolution when any component is further than 0.25 from an
    integer, which signals insufficient precision.
    """
    size = len(level_values)
    if len(sibling_products) != size:
        raise ValueError("need one sibling product per part")
    a = np.empty((size, size))
    for j in range(1, size + 1):
        for k in range(1, size + 1):
            a[j - 1, k - 1] = float(level_values[rho(k + j - 1, size) - 1])
    rhs = np.array([float(v) for v in sibling_products])
    x = np.linalg.solve(a, rhs)
    rounded = np.rint(x)
    residual = np.abs(x - rounded)
    if residual.max() >= 0.25:
        raise NonIntegralSolution(
            f"max rounding residual {residual.max():.3f}; raise the working precision"
        )
    return tuple(int(v) for v in rounded)
