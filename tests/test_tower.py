import json
from collections import Counter
import tracemalloc
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ngontower.errors import VerificationError
from ngontower.invariant_sets import f_part, g_part, locate_pair, part_members, split_children
from ngontower.residues import rho
from ngontower.tower import (
    CosineCache,
    SignAmbiguous,
    build_schedule,
    build_tower,
    evaluate_tower,
    resolve_signs,
)

from pair_reference import part_pairs
from paper_checks import NonIntegralSolution, mu_via_linear_system
from tower_values import mpf, part_values

GOLDEN = Path(__file__).parent / "golden"


def test_pruned_17_schedule():
    tower = build_tower(17)
    assert len(tower.nodes) == 3
    labels = [n.splits.label(tower.table) for n in tower.nodes]
    assert labels == ["S", "G1", "G1(1,2)"]
    # Splitting G1(1,2) yields the pairs p1 and p4.
    assert tower.nodes[-1].left.pair_number(tower.table) == 1
    assert tower.nodes[-1].right.pair_number(tower.table) == 4


def test_pruned_257_closure():
    # The dependency closure needs all four stride-4 splits (the bottom-level
    # products reference every F(k,8)), hence 15 nodes, not the 14 the
    # published pruning narrative suggests.
    tower = build_tower(257)
    assert tower.report.per_step == {1: 1, 2: 2, 3: 4, 4: 3, 5: 2, 6: 2, 7: 1}
    assert len(tower.nodes) == 15


def test_full_schedules_cover_every_split(tower257_full):
    assert len(tower257_full.nodes) == 127  # one less than the pair count
    assert tower257_full.report.per_step == {1: 1, 2: 2, 3: 4, 4: 8, 5: 16, 6: 32, 7: 64}


def test_residual_bounds(tower257_full, tower65537):
    for tower in (tower257_full, tower65537):
        tol = mp.mpf(2) ** (-(tower.precision // 2))
        assert mpf(tower.report.max_vieta_err) < tol
        assert mpf(tower.report.max_value_err) < tol


def test_65537_full_f_levels(table65537, params65537):
    tower = build_schedule(params65537, table65537, kind="full")
    f_nodes = [n for n in tower.nodes if n.splits.kind == "F"]
    assert len(f_nodes) == 2047
    steps_1_to_9 = [n for n in f_nodes if n.step <= 9]
    assert len(steps_1_to_9) == 511
    assert len(tower.nodes) == 2047 + 2048 * 15


def test_65537_pruned_schedule(tower65537):
    assert tower65537.report.per_step == {
        1: 1, 2: 2, 3: 4, 4: 8, 5: 16, 6: 32, 7: 64, 8: 128, 9: 256,
        10: 171, 11: 17, 12: 6, 13: 4, 14: 2, 15: 1,
    }
    step11 = sorted(n.splits.offset for n in tower65537.nodes if n.step == 11)
    assert step11 == [1, 2, 93, 94, 150, 185, 242, 334, 784, 840, 841, 876, 932, 933, 934, 968, 1024]
    step12 = sorted(n.splits.set_index for n in tower65537.nodes if n.step == 12)
    assert step12 == [1, 93, 933, 1025, 1117, 1957]


def test_pruned_closure_is_self_contained(tower65537):
    produced = {tower65537.nodes[0].splits}
    from ngontower.tower import _root_part

    produced = {_root_part(tower65537.params)}
    for node in tower65537.nodes:
        assert node.splits in produced
        for part in node.product_expr.referenced_parts():
            assert part in produced
        produced.add(node.left)
        produced.add(node.right)


def test_signs_257(tower257_full):
    by_split = {n.splits: n for n in tower257_full.nodes}
    assert by_split[f_part(1, 1)].left_is_larger  # F(1,2) > F(2,2)
    assert by_split[g_part(1, 1, 2)].left_is_larger  # G1(1,4) > G1(3,4)
    assert by_split[g_part(1, 1, 4)].left_is_larger  # p1 > p16
    assert not by_split[g_part(9, 1, 1)].left_is_larger  # G9(1,2) < G9(2,2)


def test_signs_65537_step3(tower65537):
    by_split = {n.splits: n for n in tower65537.nodes}
    assert not by_split[f_part(1, 4)].left_is_larger
    assert by_split[f_part(2, 4)].left_is_larger
    assert by_split[f_part(3, 4)].left_is_larger
    assert not by_split[f_part(4, 4)].left_is_larger


def test_values_match_closed_forms(tower257_full):
    with mp.workprec(128):
        values = part_values(tower257_full)
        f12 = values[f_part(1, 2)]
        assert abs(f12 - (-1 + mp.sqrt(257)) / 2) < mp.mpf(2) ** -120
        # Digits frozen from the direct cosine sum over the 64 pairs of F(1,2).
        approx = mp.mpf("7.515609770940698682435677378844241104")
        assert abs(f12 - approx) < 1e-33


def test_17_closed_forms():
    tower = build_tower(17)
    with mp.workprec(128):
        values = part_values(tower)
        g1 = values[g_part(1, 1, 1)]
        assert abs(g1 - (-1 + mp.sqrt(17)) / 2) < mp.mpf(2) ** -120
        p1, p2 = values[g_part(1, 1, 2)], values[g_part(1, 2, 2)]
        assert abs(p1 * p2 + 1) < mp.mpf(2) ** -120  # P1 * P2 = -1
        pair1 = values[g_part(1, 1, 4)]
        assert abs(pair1 - (p1 + mp.sqrt(2 * p2 - p1 * p1 + 8)) / 2) < mp.mpf(2) ** -120
        # Digits frozen from 2cos(2pi/17) computed directly.
        assert abs(pair1 - mp.mpf("1.864944458808711609146231783643126772")) < 1e-33


def test_5_and_3():
    tower = build_tower(5)
    with mp.workprec(128):
        assert abs(mpf(tower.report.p1) - (-1 + mp.sqrt(5)) / 2) < mp.mpf(2) ** -120
    tower = build_tower(3)
    assert mpf(tower.report.p1) == -1


class _GivenSums:
    """A cosine cache with the sums of some parts given instead."""

    def __init__(self, cache, sums):
        self.cache, self.sums = cache, sums
        self.scale_bits, self.part_bound = cache.scale_bits, cache.part_bound

    def part_fixed(self, part):
        return self.sums[part] if part in self.sums else self.cache.part_fixed(part)


def test_sign_ambiguous_raises(params257, table257, monkeypatch):
    # At 4 bits every sign of the pruned 257 tower is still proven; tie the
    # last node's halves and that node is named as unproven.
    from ngontower import tower as tower_module

    def pruned_at_4_bits():
        tower = build_schedule(params257, table257, kind="pruned")
        tower.precision = 4
        return tower

    assert all(node.left_is_larger is not None for node in resolve_signs(pruned_at_4_bits()).nodes)
    last = pruned_at_4_bits().nodes[-1]
    cache = CosineCache(params257, table257, 4)
    sums = _GivenSums(cache, {last.left: cache.part_fixed(last.right)})
    monkeypatch.setattr(tower_module, "CosineCache", lambda *args: sums)
    with pytest.raises(SignAmbiguous, match=f"^node {last.id}: "):
        resolve_signs(pruned_at_4_bits())


@pytest.mark.parametrize("node_id", [0, 5])
def test_resolve_signs_proves_every_sign_or_names_its_node(node_id, params17, table17, monkeypatch):
    # A node's sign is decided only when its halves' sums differ by more
    # than their two error bounds; otherwise the node is named as unproven.
    from ngontower import tower as tower_module

    cache = CosineCache(params17, table17, 128)
    node = build_schedule(params17, table17, "full").nodes[node_id]
    bound = cache.part_bound(node.left) + cache.part_bound(node.right)
    real = cache.part_fixed(node.right)
    for gap in (bound + 1, -bound - 1, bound, 1, 0, -1, -bound):
        sums = _GivenSums(cache, {node.left: real + gap})
        monkeypatch.setattr(tower_module, "CosineCache", lambda *args: sums)
        tower = build_schedule(params17, table17, "full")
        tower.precision = 128
        if abs(gap) > bound:
            assert resolve_signs(tower).nodes[node_id].left_is_larger is (gap > 0)
            continue
        message = f"^node {node_id}: .* within their bound {bound}; raise the precision$"
        with pytest.raises(SignAmbiguous, match=message):
            resolve_signs(tower)


@pytest.mark.parametrize("split", [f_part(1, 1), g_part(2, 1, 2)])
def test_report_signs_are_proven_or_refused(split, params17, table17):
    # `tables --kind signs` and the report's sign diff decide a split only
    # when its halves' sums differ by more than their two error bounds.
    from ngontower.report import left_is_larger

    cache = CosineCache(params17, table17, 128)
    left, right = split_children(split, table17)
    bound = cache.part_bound(left) + cache.part_bound(right)
    real = cache.part_fixed(left)
    for gap, expected in ((bound + 1, True), (-bound - 1, False)):
        sums = _GivenSums(cache, {left: real + gap, right: real})
        assert left_is_larger(left, right, sums) is expected
    for gap in (bound, 1, 0, -1, -bound):
        sums = _GivenSums(cache, {left: real + gap, right: real})
        with pytest.raises(SignAmbiguous, match=f"within their bound {bound}; raise the precision$"):
            left_is_larger(left, right, sums)
    assert left_is_larger(left, right, cache) == (cache.part_fixed(left) > cache.part_fixed(right))


@pytest.mark.parametrize("side", [1, -1])
def test_a_stored_value_exactly_at_the_tolerance_passes(side):
    # T = 2^tol_bits units of 2^-scale: a stored value exactly T from the
    # reference is not further; one unit further is, and so is any part
    # of a unit, which only an exponent below -scale can store.
    from ngontower.rawfloat import round_raw
    from ngontower.tower import _farther_than

    scale, tol_bits, ref = 80, 16, 12345 << 40
    edge = ref + side * (1 << tol_bits)
    assert not _farther_than(round_raw(edge, scale), ref, scale, tol_bits)
    assert _farther_than(round_raw(edge + side, scale), ref, scale, tol_bits)
    assert _farther_than(round_raw((edge << 10) + side, scale + 10), ref, scale, tol_bits)
    assert not _farther_than(round_raw((edge << 10) - side, scale + 10), ref, scale, tol_bits)
    # Above the scale: 2^100 against itself, one unit below it, and 0.
    assert not _farther_than((0, 1, 100, 1), 1 << 180, scale, tol_bits)
    assert not _farther_than((0, 1, 100, 1), (1 << 180) - 1, scale, tol_bits)
    assert _farther_than((0, 1, 100, 1), 0, scale, tol_bits)


@pytest.mark.parametrize("exp", [1 << 40, -(1 << 40)])
def test_a_stored_exponent_of_2_to_the_40_is_decided_at_once(exp):
    # Shifting a mantissa by 2^40 bits would take 2^37 bytes: the check
    # decides without it, and in no time.
    from time import perf_counter

    from ngontower.tower import _farther_than

    start = perf_counter()
    assert _farther_than((0, 3, exp, 2), 0, 80, 16) is (exp > 0)
    assert _farther_than((1, 3, exp, 2), 1 << 90, 80, 16)
    # 3 2^-(2^40) is a part of a unit beyond T from -T, and within it from 1 - T.
    assert _farther_than((0, 3, exp, 2), -(1 << 16), 80, 16)
    assert _farther_than((0, 3, exp, 2), 1 - (1 << 16), 80, 16) is (exp > 0)
    assert perf_counter() - start < 0.05


def test_a_stored_value_is_checked_to_two_units_of_the_larger_sums_pth_bit(params17, table17):
    # At 2 bits the tolerance's second term, two units in the 2nd bit of the
    # larger half's sum, is the larger one: a stored value_left exactly that
    # far from its sum passes on either side, one unit of 2^-S further fails.
    from ngontower.rawfloat import round_raw

    precision = 2
    cache = CosineCache(params17, table17, precision)
    scale = cache.scale_bits
    node = build_schedule(params17, table17, "full").nodes[0]
    lf, rf = cache.part_fixed(node.left), cache.part_fixed(node.right)
    tol_bits = max(abs(lf), abs(rf)).bit_length() + 1 - precision
    assert tol_bits > scale - precision // 2
    for sign in (1, -1):
        for beyond, passes in ((0, True), (1, False)):
            tower = build_schedule(params17, table17, "full")
            tower.precision = precision
            stored = lf + sign * ((1 << tol_bits) + beyond)
            tower.nodes[0].value_left = round_raw(stored, scale)
            if passes:
                resolve_signs(tower)
                continue
            with pytest.raises(VerificationError, match="^node 0: stored value_left "):
                resolve_signs(tower)


@pytest.mark.parametrize("side", [1, -1])
def test_a_node_value_is_checked_to_its_radius_plus_the_sums_bound(side, params17, table17):
    # The last node's left value v, radius r (scale 2^F) against a cosine
    # sum T (scale 2^S) put exactly r 2^(S-F) + part_bound from v 2^(S-F)
    # passes; one unit of 2^-S further fails, naming the node.
    from ngontower.arith import RUN_GUARD_BITS, arith_values, compile_to_arith

    precision = 128
    tower = build_schedule(params17, table17, "full")
    tower.precision = precision
    resolve_signs(tower)
    prog = compile_to_arith(tower)
    vals, rads = arith_values(prog, precision)
    node, i = tower.nodes[-1], prog.nodes[-1][2]
    shift = tower.cosines.scale_bits - precision - RUN_GUARD_BITS
    at_bound = (vals[i] << shift) + side * ((rads[i] << shift) + tower.cosines.part_bound(node.left))

    class Placed(CosineCache):
        beyond = 0

        def part_fixed(self, part):
            return at_bound + side * self.beyond if part == node.left else super().part_fixed(part)

    tower.cosines = Placed(params17, table17, precision)
    evaluate_tower(tower)
    tower.cosines.beyond = 1
    with pytest.raises(VerificationError, match=f"^node {node.id}: .* but cosine sum gives "):
        evaluate_tower(tower)


def test_resolve_signs_builds_no_halves(params257, table257, monkeypatch):
    # Each sign is decided on the two halves its node already holds: no
    # split's halves are derived again while the signs are resolved.
    from ngontower import tower as tower_module

    tower = build_schedule(params257, table257, kind="pruned")
    tower.precision = 128
    calls = []

    def counted(*args):
        calls.append(args)
        return split_children(*args)

    monkeypatch.setattr(tower_module, "split_children", counted)
    resolve_signs(tower)
    assert calls == []
    assert all(node.left_is_larger is not None for node in tower.nodes)


@pytest.mark.parametrize("n, precision", [(17, 128), (257, 8)])
def test_p1_is_proven_by_its_radius(n, precision, monkeypatch):
    # p1's value v and radius r at scale 2^F must meet |v - c| <= r + 1,
    # with c = 2cos(2pi/n) 2^F rounded to an int: p1 placed r + 1 units
    # from c passes on either side, r + 2 units away it fails, however far
    # below 2^-(precision // 2) that is.
    from ngontower import arith
    from ngontower.errors import VerificationError

    run, scale = arith._run, precision + arith.RUN_GUARD_BITS
    with mp.workprec(scale + 64):
        c = int(mp.nint(2 * mp.cos(2 * mp.pi / n) * mp.mpf(2) ** scale))
    for units, passes in ((1, True), (-1, True), (2, False), (-2, False)):
        radius = []

        def placed(prog, first, end, vals, rads, scale):
            run(prog, first, end, vals, rads, scale)
            if end == len(prog.ops):
                p1 = prog.outputs["p1"]
                radius.append(rads[p1])
                vals[p1] = c + (rads[p1] + abs(units)) * (1 if units > 0 else -1)

        monkeypatch.setattr(arith, "_run", placed)
        if passes:
            assert build_tower(n, "pruned", precision).report.p1 is not None
            continue
        with pytest.raises(VerificationError, match=r"^p1 misses 2cos\(2pi/n\) by ") as info:
            build_tower(n, "pruned", precision)
        r = radius[0]
        assert r + 2 < 1 << (scale - precision // 2)
        assert str(info.value) == f"p1 misses 2cos(2pi/n) by {r + 2} units of 2^-{scale}, radius {r}"


@pytest.mark.parametrize("n, kind", [(3, "pruned"), (17, "pruned"), (257, "full")])
def test_report_p1_error_is_the_proven_gap(n, kind):
    # The report's |p1 - 2cos(2pi/n)| is the int gap that p1's check
    # compares, |v - c| at scale 2^F, rounded once to the precision: 0 at
    # n = 3, where p1 = -1 exactly, and not 0 where p1 is irrational.
    from ngontower.arith import RUN_GUARD_BITS, arith_values, compile_to_arith
    from ngontower.report import render_report
    from ngontower.rawfloat import round_raw

    tower = build_tower(n, kind)
    precision = tower.precision
    scale = precision + RUN_GUARD_BITS
    prog = compile_to_arith(tower)
    v = arith_values(prog, precision)[0][prog.outputs["p1"]]
    with mp.workprec(scale + 64):
        c = int(mp.nint(2 * mp.cos(2 * mp.pi / n) * mp.mpf(2) ** scale))
    gap = round_raw(abs(v - c), scale, precision)
    assert tower.report.p1_err == gap
    line = f"|p1 - 2cos(2pi/n)| = {mp.nstr(mpf(gap), 8)}"
    assert line in render_report(tower).splitlines()
    assert (mpf(gap) == 0) == (n == 3)


def test_sign_margins_are_the_exact_differences_rounded_once(tower257_full):
    # Each margin is |left - right| of the exact cosine sums, the int the
    # sign was proven on, rounded once to the precision: not a difference
    # of two roundings, rounded again.
    from ngontower.rawfloat import round_raw

    cache = tower257_full.cosines
    for node in tower257_full.nodes:
        lf, rf = cache.part_fixed(node.left), cache.part_fixed(node.right)
        want = round_raw(abs(lf - rf), cache.scale_bits, tower257_full.precision)
        assert node.sign_margin == want, node.id


def test_determinism(tmp_path):
    from ngontower.towerfile import dump_tower

    a, b = tmp_path / "a", tmp_path / "b"
    dump_tower(build_tower(257), str(a))
    dump_tower(build_tower(257), str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "n, kind", [(n, kind) for n in (3, 5, 17, 257) for kind in ("full", "pruned")]
)
def test_roundtrip(n, kind, tmp_path):
    from ngontower.towerfile import dump_tower, load_tower

    tower = build_tower(n, kind)
    path = tmp_path / "t.tower"
    dump_tower(tower, str(path))
    loaded = load_tower(str(path))
    assert len(loaded.nodes) == len(tower.nodes)
    for a, b in zip(tower.nodes, loaded.nodes):
        assert a.splits == b.splits
        assert a.product_expr == b.product_expr
        for expr in (a.product_expr, b.product_expr):
            coeffs = [expr.constant, *(c for c, _ in (*expr.linear, *expr.squares))]
            assert all(type(c) is int for c in coeffs)
        assert a.left_is_larger == b.left_is_larger
        assert a.value_left == b.value_left
        assert a.value_right == b.value_right
    # Second dump is byte-identical.
    path2 = tmp_path / "t2.tower"
    dump_tower(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("fixture", ["tower257_full", "tower65537"])
def test_loaded_tower_holds_one_object_per_part_and_term(fixture, request, tmp_path):
    from ngontower.towerfile import dump_tower, load_tower

    path = tmp_path / "t.tower"
    dump_tower(request.getfixturevalue(fixture), str(path))
    nodes = load_tower(str(path)).nodes
    terms = [t for node in nodes for t in (*node.product_expr.linear, *node.product_expr.squares)]
    parts = [p for node in nodes for p in (node.splits, node.left, node.right)]
    parts += [p for _, p in terms]
    assert len(terms) > len(set(terms)) and len(parts) > len(set(parts))
    assert len({id(t) for t in terms}) == len(set(terms))
    assert len({id(p) for p in parts}) == len(set(parts))


def _level_values_and_products(tower, m):
    values = part_values(tower)
    stride = 1 << m
    level = [values[f_part(j, stride)] for j in range(1, stride + 1)]
    by_split = {n.splits: n for n in tower.nodes}
    products = [
        mpf(by_split[f_part(j, stride)].value_left) * mpf(by_split[f_part(j, stride)].value_right)
        for j in range(1, stride + 1)
    ]
    return level, products


def test_mu_via_linear_system_257(tower257_full, table257):
    from ngontower.splitting import mu_table

    for m in (2, 3):
        level, products = _level_values_and_products(tower257_full, m)
        assert mu_via_linear_system(level, products) == mu_table(m, table257)


def test_mu_via_linear_system_17():
    tower = build_tower(17, kind="full")
    level, products = _level_values_and_products(tower, 0)
    assert mu_via_linear_system(level, products) == (4,)


def test_mu_via_linear_system_rejects_noise():
    with pytest.raises(NonIntegralSolution):
        mu_via_linear_system([1.0, 2.0], [2.6, 3.9])


# ---------------------------------------------------------------------------
# The fixed-point cosine table against 2cos(k theta) at F + 64 bits


def _reference_pair(n: int, k: int, bits: int):
    with mp.workprec(bits):
        return 2 * mp.cos(k * (2 * mp.pi / n))


def _pair_fixed(cache: CosineCache, k: int) -> int:
    """Pair k's entry: the sum of its one-pair G part."""
    set_index, pos = locate_pair(cache.table, k)
    return cache.part_fixed(g_part(set_index, pos, 1 << cache.params.nu))


def _entry_error(cache: CosineCache, k: int):
    bits = cache.scale_bits + 64
    with mp.workprec(bits):
        entry = mp.ldexp(_pair_fixed(cache, k), -cache.scale_bits)
        return abs(entry - _reference_pair(cache.params.n, k, bits))


def _entry_bound(cache: CosineCache):
    # Two units of 2^-F: the orbit walk's bound, half the 4 of `part_bound`.
    return mp.mpf(2) ** -(cache.scale_bits - 1)


def _reference_part(cache: CosineCache, part):
    bits = cache.scale_bits + 64
    pairs = part_pairs(part, cache.table)
    with mp.workprec(bits):
        return mp.fsum(_reference_pair(cache.params.n, k, bits) for k in pairs), len(pairs)


def _check_part_value(cache: CosineCache, part):
    # The table's part sum is the exact sum of its entries, rounded once.
    entries = sum(_pair_fixed(cache, k) for k in part_pairs(part, cache.table))
    with mp.workprec(cache.precision):
        assert mpf(cache.part_value(part)) == mp.ldexp(mp.mpf(entries), -cache.scale_bits), part
    ref, m = _reference_part(cache, part)
    with mp.workprec(cache.scale_bits + 64):
        # m entry errors, then one rounding to `precision` bits.
        tol = m * _entry_bound(cache) + abs(ref) * mp.mpf(2) ** -(cache.precision - 1)
        assert abs(mpf(cache.part_value(part)) - ref) <= tol, part


@pytest.mark.parametrize("n, block", [(17, 4), (257, 16)])
def test_cosine_table_every_entry(n, block, request):
    params, table = request.getfixturevalue(f"params{n}"), request.getfixturevalue(f"table{n}")
    cache = CosineCache(params, table, 128)
    assert cache.block == block and cache.scale_bits == 128 + CosineCache.GUARD_BITS
    assert len(cache.set_fixed) == params.ng + 1
    for k in range(1, params.npairs + 1):
        assert _entry_error(cache, k) <= _entry_bound(cache), k


@pytest.fixture(scope="module")
def cache65537(params65537, table65537):
    return CosineCache(params65537, table65537, 512)


def _check_set_sums(cache: CosineCache, sets):
    for k in sets:
        assert cache.set_fixed[k] == sum(_pair_fixed(cache, p) for p in cache.table.pairs_of_set(k)), k


@pytest.mark.parametrize("n", [17, 257])
def test_set_sums_are_their_entries(n, request):
    params, table = request.getfixturevalue(f"params{n}"), request.getfixturevalue(f"table{n}")
    cache = CosineCache(params, table, 128)
    _check_set_sums(cache, range(1, params.ng + 1))


def test_set_sums_are_their_entries_65537_sampled(cache65537):
    _check_set_sums(cache65537, [1, 2, 3, 255, 256, 1024, 1025, 2047, 2048])


def test_cosine_cache_holds_no_pair_table(params65537, table65537):
    # Two tables of 256 and 129 rotations plus 2,048 set sums, each set's
    # orbit walked without keeping its entries: a list of all 32,769 pair
    # entries held 3.5 MB here.
    CosineCache(params65537, table65537, 512)  # mpmath's constants at this precision
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache = CosineCache(params65537, table65537, 512)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert held < 1_000_000 and peak < 1_000_000, (held, peak)
    assert len(cache.set_fixed) == params65537.ng + 1


@pytest.mark.parametrize("k", [0, -1, 17])
def test_pair_fixed_refuses_a_pair_out_of_range(k, params17, table17):
    # A pair's entry is read through its place in the sets, which refuses a
    # pair outside 1..npairs.
    cache = CosineCache(params17, table17, 128)
    with pytest.raises(ValueError, match="out of range"):
        _pair_fixed(cache, k)


def test_orbit_bits_must_cover_the_orbit_error(params65537, table65537, monkeypatch):
    # 15 squarings of an entry within 2^11 units need 2 * 15 + 11 + 2 = 43 bits.
    monkeypatch.setattr(CosineCache, "ORBIT_BITS", 42)
    with pytest.raises(AssertionError, match="orbit bits"):
        CosineCache(params65537, table65537, 512)


@pytest.mark.parametrize("n", [17, 257, 65537])
def test_part_bound_is_four_units_a_pair(n, request):
    # Every F and G part that `check_part` admits, its pairs counted from
    # its members: an F part's sets times their pairs, a G part's pairs.
    params, table = request.getfixturevalue(f"params{n}"), request.getfixturevalue(f"table{n}")
    cache = CosineCache(params, table, 8)
    f_strides = [1 << e for e in range(params.ng.bit_length())]
    g_strides = [1 << e for e in range(params.nu + 1)]
    parts = [f_part(j, s) for s in f_strides for j in range(1, s + 1)]
    parts += [g_part(k, j, s) for k in range(1, params.ng + 1) for s in g_strides for j in range(1, s + 1)]
    for part in parts:
        members = part_members(part, table)
        pairs = sum(len(table.sets[k - 1]) for k in members) if part.kind == "F" else len(members)
        assert cache.part_bound(part) == 4 * pairs, part


def test_rotation_tables_within_their_bound(cache65537):
    # low[b] and high[a] are within 2.2 b and 2.2 a units of 2^-W, as the
    # length of their (cos, sin) error.
    wide = cache65537.wide_bits
    assert wide == cache65537.scale_bits + CosineCache.ORBIT_BITS
    with mp.workprec(wide + 64):
        theta = 2 * mp.pi / cache65537.params.n
        for rows, step in ((cache65537.low, 1), (cache65537.high, cache65537.block)):
            for j, (c, s) in enumerate(rows):
                ref_c, ref_s = (mp.ldexp(x, wide) for x in mp.cos_sin(j * step * theta))
                assert mp.hypot(c - ref_c, s - ref_s) <= mp.mpf("2.2") * j, (step, j)


def test_cosine_sums_walk_each_orbit(params65537, table65537, params257, table257, monkeypatch):
    # Two cosine seeds for the whole cache, one walk per set to sum it,
    # and at most one more per set for the strided G parts a full tower reads.
    from ngontower import tower as tower_module

    calls = Counter()
    cos_sin, orbit = tower_module.cos_sin_fixed, CosineCache._orbit

    def counted_cos_sin(*args):
        calls["cos_sin"] += 1
        return cos_sin(*args)

    def counted_orbit(self, k):
        calls[k] += 1
        return orbit(self, k)

    monkeypatch.setattr(tower_module, "cos_sin_fixed", counted_cos_sin)
    CosineCache(params65537, table65537, 512)
    assert calls == Counter(cos_sin=2)
    calls.clear()
    monkeypatch.setattr(CosineCache, "_orbit", counted_orbit)
    CosineCache(params65537, table65537, 512)
    assert calls.pop("cos_sin") == 2
    assert calls == Counter(range(1, params65537.ng + 1))
    calls.clear()
    tower = build_schedule(params257, table257, "full")
    tower.precision = 128
    resolve_signs(tower)
    assert calls.pop("cos_sin") == 2
    assert set(calls) == set(range(1, params257.ng + 1)) and max(calls.values()) <= 2


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 32768)
    | st.builds(lambda a, d: a * 256 + d, st.integers(1, 128), st.integers(-1, 1)).filter(
        lambda k: k <= 32768
    )
)
@example(k=1)
@example(k=255)
@example(k=256)
@example(k=257)
@example(k=32767)
@example(k=32768)
def test_cosine_table_entries_65537_sampled(cache65537, k):
    assert cache65537.block == 256
    assert _entry_error(cache65537, k) <= _entry_bound(cache65537)


@pytest.mark.parametrize("n", [17, 257])
def test_cosine_part_sums_and_margins(n):
    # Every part of the full tower, and every stored sign margin against the
    # margin of the reference sums.
    tower = build_tower(n, kind="full")
    cache = tower.cosines
    for node in tower.nodes:
        for part in (node.splits, node.left, node.right):
            _check_part_value(cache, part)
        (lv, _), (rv, _) = (_reference_part(cache, p) for p in (node.left, node.right))
        with mp.workprec(cache.scale_bits + 64):
            ref_margin = abs(lv - rv)
            rel = abs(mpf(node.sign_margin) - ref_margin) / ref_margin
            assert rel <= mp.mpf(2) ** -(tower.precision - 20), node.id


@settings(max_examples=40, deadline=None)
@given(
    part=st.builds(
        lambda k, log_stride, j: g_part(k, rho(j, 1 << log_stride), 1 << log_stride),
        st.integers(1, 2048),
        st.integers(0, 4),
        st.integers(1, 16),
    )
    | st.builds(
        lambda log_stride, j: f_part(rho(j, 1 << log_stride), 1 << log_stride),
        st.integers(9, 11),
        st.integers(1, 2048),
    )
)
def test_cosine_part_sums_65537_sampled(cache65537, part):
    _check_part_value(cache65537, part)


def test_tower_outputs_match_the_direct_cosine_table(tmp_path):
    """A tower dumped before the fixed-point table and the integer program
    run differs from a fresh one only in its sign margins, each within
    2^-(precision-20) relative, and its values: each old value was within
    2.9387359e-38 of its cosine sum, as that tower's report said, so each
    new one lies within that plus one ulp at 128 bits of the old, and within
    one ulp of its part's exact cosine sum.  The report gives the new,
    smaller distance."""
    from ngontower.report import render_report
    from ngontower.towerfile import dump_tower

    def stored(field):
        sign, man, exp, bc = field["mpf"]
        return mp.mpf((sign, int(man, 16), exp, bc)), exp + bc

    tower = build_tower(17, kind="full")
    path = tmp_path / "t17.tower"
    dump_tower(tower, str(path))
    old_lines = (GOLDEN / "tower_17_full.tower").read_text().splitlines()
    new_lines = path.read_text().splitlines()
    assert new_lines[0] == old_lines[0] and len(new_lines) == len(old_lines)
    changed = 0
    for old_line, new_line in zip(old_lines[1:], new_lines[1:]):
        old, new = json.loads(old_line), json.loads(new_line)
        old_margin, new_margin = old.pop("sign_margin"), new.pop("sign_margin")
        values = [(old.pop(name), new.pop(name)) for name in ("value_left", "value_right")]
        assert old == new
        if old_margin != new_margin:
            changed += 1
        with mp.workprec(256):
            old_value, _ = stored(old_margin)
            node = tower.nodes[old["id"]]
            rel = abs(mpf(node.sign_margin) - old_value) / old_value
            assert rel <= mp.mpf(2) ** -(tower.precision - 20)
            for part, (old_field, new_field) in zip((node.left, node.right), values):
                (old_value, top), (new_value, new_top) = stored(old_field), stored(new_field)
                bound = mp.mpf("2.9387359e-38") + mp.mpf(2) ** (top - 128)
                assert abs(new_value - old_value) <= bound, old["id"]
                exact = mp.ldexp(tower.cosines.part_fixed(part), -tower.cosines.scale_bits)
                assert abs(new_value - exact) <= mp.mpf(2) ** (new_top - 128), old["id"]
    assert changed == 3
    assert "max |value - cosine sum| = 2.2958525e-48" in render_report(tower).splitlines()


def test_report_gives_the_largest_value_radius(tower65537):
    # The line after the Vieta residual: the largest radius of a node value,
    # how far the integer run may be from the exact value.  At 512 bits it
    # leaves more than 200 bits below the 2^-256 of the old value rule.
    from ngontower.report import render_report

    lines = render_report(build_tower(17)).splitlines()
    vieta = next(i for i, line in enumerate(lines) if line.startswith("max Vieta residual = "))
    assert lines[vieta + 1] == "max value radius = 1.3000328e-47"
    radius = mpf(tower65537.report.max_value_radius)
    assert f"max value radius = {mp.nstr(radius, 8)}" in render_report(tower65537).splitlines()
    assert radius <= mp.mpf(2) ** -460
