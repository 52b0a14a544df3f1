import hashlib
import os
import random
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from itertools import compress, count, repeat
from operator import is_not
from pathlib import Path

import mpmath as mp
import pytest

from ngontower.construction import (
    RUN_GUARD_BITS,
    ArithInstr,
    ArithProgram,
    _ArithBuilder,
    _GeomBuilder,
    _node_interior,
    NegativeRadicand,
    arith_values,
    compile_to_arith,
    dump_arith,
    dump_geom,
    emit_svg,
    execute_geom,
    load_geom,
    lower_to_geom,
    polygon_vertices,
    proven_signs,
    _run,
)
from ngontower.errors import VerificationError
from ngontower.invariant_sets import LinearCombo, g_part
from ngontower.sharing import Lines
from ngontower.tower import _root_part, build_tower, evaluate_tower
from ngontower.towerfile import dump_tower

from arith_io import load_arith
from mpf_reference import mpf_arith_values

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).parent / "golden"


def _real(v: int, precision: int):
    """A value of a run at `precision` as an mpf, exactly."""
    return mp.ldexp(v, -(precision + RUN_GUARD_BITS))


def _stored(v: int, precision: int):
    """A value of a run at `precision` as a tower stores it: rounded once."""
    with mp.workprec(precision):
        return mp.ldexp(mp.mpf(v), -(precision + RUN_GUARD_BITS))


@pytest.fixture(scope="module")
def tower17():
    return build_tower(17)


@pytest.fixture(scope="module")
def tower257():
    return build_tower(257)


def test_sqrt_counts(tower17, tower257):
    assert compile_to_arith(tower17).sqrt_count() == 4  # 3 nodes + sin
    assert compile_to_arith(build_tower(5)).sqrt_count() == 2
    assert compile_to_arith(build_tower(3)).sqrt_count() == 1
    # 15 pruned nodes (the published narrative implies 14; see the closure
    # tests) plus the sine root.
    assert compile_to_arith(tower257).sqrt_count() == 16


def test_pruned_compiles_to_fewer_sqrts(tower257, tower257_full):
    pruned = compile_to_arith(tower257).sqrt_count()
    full = compile_to_arith(tower257_full).sqrt_count()
    assert pruned < full


def _tower(n, kind, request):
    """The tower for n and kind, from a session fixture where one exists."""
    shared = {(257, "full"): "tower257_full", (65537, "pruned"): "tower65537"}
    if (n, kind) in shared:
        return request.getfixturevalue(shared[n, kind])
    return build_tower(n, kind)


def _signs(prog, precision):
    """The sign of every instruction value, as `lower_to_geom` reads them."""
    return proven_signs(*arith_values(prog, precision))


def _outputs(prog, precision):
    values, _ = arith_values(prog, precision)
    return {name: _real(values[idx], precision) for name, idx in prog.outputs.items()}


def test_arith_outputs_match_cosine(tower17):
    outs = _outputs(compile_to_arith(tower17), 128)
    with mp.workprec(128):
        assert abs(outs["cos"] - mp.cos(2 * mp.pi / 17)) < mp.mpf(2) ** -64
        assert abs(outs["sin"] - mp.sin(2 * mp.pi / 17)) < mp.mpf(2) ** -64
        assert abs(outs["p1"] - 2 * outs["cos"]) < mp.mpf(2) ** -64


@pytest.mark.parametrize(
    "n, kind",
    [(5, "full"), (5, "pruned"), (17, "full"), (17, "pruned"), (257, "full"), (257, "pruned"),
     (65537, "pruned")],
)
def test_program_values_are_the_tower_values(n, kind, request):
    # evaluate_tower runs the compiled program, so every node value a tower
    # stores is the program's value for that half, rounded once, bit for bit.
    tower = _tower(n, kind, request)
    prog = compile_to_arith(tower)
    values, _ = arith_values(prog, tower.precision)
    assert len(prog.nodes) == len(tower.nodes)
    for node, (_, root, left, right) in zip(tower.nodes, prog.nodes):
        assert prog.instrs[root].op == "SQRT"
        assert _stored(values[left], tower.precision)._mpf_ == node.value_left
        assert _stored(values[right], tower.precision)._mpf_ == node.value_right


@pytest.mark.parametrize(
    "n, kind", [(n, kind) for n in (3, 5, 17, 257) for kind in ("full", "pruned")] + [(65537, "pruned")]
)
def test_streamed_evaluation_gives_the_program_values(n, kind, request):
    # evaluate_tower runs the program node by node and drops what no later
    # instruction reads; what it stores and returns are the values and
    # signs of the whole program run at once, bit for bit.
    tower = _tower(n, kind, request)
    prog, signs = evaluate_tower(tower)
    values, radii = arith_values(compile_to_arith(tower), tower.precision)
    assert list(signs) == proven_signs(values, radii)
    for node, (_, _, left, right) in zip(tower.nodes, prog.nodes):
        assert (node.value_left, node.value_right) == tuple(
            _stored(values[i], tower.precision)._mpf_ for i in (left, right)
        )
    assert tower.report.p1 == _stored(values[prog.outputs["p1"]], tower.precision)._mpf_


@pytest.mark.parametrize("n, kind", [(17, "full"), (257, "pruned"), (65537, "pruned")])
def test_evaluation_runs_the_program_node_by_node(n, kind, request, monkeypatch):
    # The runs tile the finished program: one per node, from the end of the
    # node before it to just past its second root, then one for p1, cos and
    # sin.
    from ngontower import construction

    tower, run, runs = _tower(n, kind, request), construction._run, []

    def recorded(prog, first, end, vals, rads, scale):
        runs.append((first, end))
        run(prog, first, end, vals, rads, scale)

    monkeypatch.setattr(construction, "_run", recorded)
    prog, _ = evaluate_tower(tower)
    ends = [max(left, right) + 1 for _, _, left, right in prog.nodes] + [len(prog.ops)]
    assert runs == list(zip([0] + ends[:-1], ends))


@pytest.mark.parametrize("n, kind", [(257, "full"), (65537, "pruned")])
def test_evaluation_drops_each_value_after_its_last_reader(n, kind, request, monkeypatch):
    # When each run begins, the runs before it have ended a node's segment:
    # every value and radius still held must have a reader at or past the
    # start of this run.  p1's last reader is the HALF of the outputs' run.
    from ngontower import construction

    tower, run, held_at = _tower(n, kind, request), construction._run, []
    last: list[int] = []

    def checked(prog, first, end, vals, rads, scale):
        if not last:
            last.extend([-1] * len(prog.ops))
            for i, operands in enumerate(zip(prog.a, prog.b)):
                for x in operands:
                    if x >= 0:
                        last[x] = i
        held = list(compress(count(), map(is_not, vals, repeat(None))))
        assert held == list(compress(count(), map(is_not, rads, repeat(None))))
        stale = [i for i in held if last[i] < first]
        assert not stale, (first, stale[:5])
        held_at.append(len(held))
        run(prog, first, end, vals, rads, scale)

    monkeypatch.setattr(construction, "_run", checked)
    prog, _ = evaluate_tower(tower)
    assert len(held_at) == len(prog.nodes) + 1
    assert max(held_at) < len(prog.ops) // 4, max(held_at)


def test_streamed_evaluation_holds_only_live_values(tower65537):
    # Above the signed tower, the evaluation holds the program (0.4 MB of
    # columns), the last reader of each instruction (0.1 MB) and, at most,
    # the values that a later instruction reads (at most 1,991 of 28,008
    # when a node's run begins) with their radii, plus one sign byte per
    # instruction: 1.4 MB at its peak, where all 28,008 values and radii
    # take 4.3 MB.
    evaluate_tower(tower65537)  # every cosine sum it reads is cached
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluate_tower(tower65537)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def _in_units(x, scale: int) -> Fraction:
    """The mpf x in units of 2^-scale, exactly."""
    sign, man, exp, _ = x._mpf_
    units = Fraction(man << max(exp + scale, 0), 1 << max(-exp - scale, 0))
    return -units if sign else units


def _check_against_reference(prog, precision) -> bool:
    """Every value of the run at `precision` lies within its radius of the
    mpf reference at precision + 64 bits, and the run stops only at a SQRT
    whose reference operand lies within its radius of a value <= 0, or where
    the reference stops.  Returns whether the run stopped."""
    scale = precision + RUN_GUARD_BITS
    values, radii, stopped = [], [], False
    try:
        _run(prog, 0, len(prog.ops), values, radii, scale)
    except NegativeRadicand:
        stopped = True
    want = mpf_arith_values(prog, precision + 64)
    assert len(want) >= len(values) and (stopped or len(want) == len(values))
    for i, (v, r) in enumerate(zip(values, radii)):
        assert abs(v - _in_units(want[i], scale)) <= r, (i, prog.instrs[i])
    if stopped and len(want) > len(values):
        x = prog.a[len(values)]
        assert _in_units(want[x], scale) <= radii[x], prog.instrs
    return stopped


@pytest.mark.parametrize(
    "n, kind", [(n, kind) for n in (3, 5, 17, 257) for kind in ("full", "pruned")] + [(65537, "pruned")]
)
def test_raw_interpreter_matches_the_mpf_one_on_tower_programs(n, kind, request):
    # The int run is within its radius of the mpf reference, and every sign
    # and every node value is proven.
    tower = _tower(n, kind, request)
    prog = compile_to_arith(tower)
    assert not _check_against_reference(prog, tower.precision)
    values, radii = arith_values(prog, tower.precision)
    assert all(abs(v) > r or v == r == 0 for v, r in zip(values, radii))


def test_raw_interpreter_matches_the_mpf_one_on_fuzz_programs():
    # The 1,000 programs of `test_lowering_fuzz`, each followed by the SQRT
    # of -out, which stops the run whenever out > 0.
    rng = random.Random(20260809)
    stopped = 0
    for _ in range(1000):
        prog = _random_program(rng)
        zero = prog.emit("CONST", value=Fraction(0))
        prog.emit("SQRT", prog.emit("SUB", zero, prog.outputs["out"]))
        stopped += _check_against_reference(prog, 96)
    assert 200 <= stopped <= 800


def _edge_program(kind: str) -> ArithProgram:
    """A program at 96 bits whose last value is off by nearly its radius, so
    that a looser radius fails: x = u - (1 - u)(1 + u) + 1, u = 2^-F, is
    u + u^2, but its MUL rounds down by almost a unit, so x comes out 2u
    with radius u.  kind "mul": MUL(x, 4), off by 4u; "half": HALF(x), off
    by u/2; "sqrt": SQRT(x), off by (sqrt(2) - 1) sqrt(u), where
    r(x) / (2 sqrt(x)) would allow 0.35 sqrt(u)."""
    unit = Fraction(1, 1 << (96 + RUN_GUARD_BITS))
    prog = ArithProgram()
    const = lambda c: prog.emit("CONST", value=c)  # noqa: E731
    product = prog.emit("MUL", const(1 - unit), const(1 + unit))
    x = prog.emit("ADD", prog.emit("SUB", const(unit), product), const(Fraction(1)))
    if kind == "mul":
        out = prog.emit("MUL", x, const(Fraction(4)))
    else:
        out = prog.emit("HALF" if kind == "half" else "SQRT", x)
    prog.outputs = {"out": out}
    return prog


@pytest.mark.parametrize("kind", ["mul", "half", "sqrt"])
def test_radius_holds_where_the_error_nearly_reaches_it(kind):
    assert not _check_against_reference(_edge_program(kind), 96)
def _walked_product(prog, i, leaves, memo):
    """Instruction i as {part term: halves} plus the constant under (),
    followed through ADD, SUB, HALF, MUL by a CONST and CONST down to the
    node roots in `leaves`; MUL(root, root) is the square of its part."""
    if i in memo:
        return memo[i]
    op, args, value = prog.instrs[i]
    if i in leaves:
        form = {("linear", leaves[i]): Fraction(2)}
    elif op == "CONST":
        form = {(): 2 * value}
    elif op in ("ADD", "SUB"):
        form = dict(_walked_product(prog, args[0], leaves, memo))
        sign = 1 if op == "ADD" else -1
        for key, c in _walked_product(prog, args[1], leaves, memo).items():
            form[key] = form.get(key, 0) + sign * c
    elif op == "HALF":
        form = {key: c / 2 for key, c in _walked_product(prog, args[0], leaves, memo).items()}
    elif op == "MUL" and args[0] == args[1] and args[0] in leaves:
        form = {("squares", leaves[args[0]]): Fraction(2)}
    elif op == "MUL" and prog.instrs[args[0]].op == "CONST" and args[0] not in leaves:
        scale = prog.instrs[args[0]].value
        form = {key: scale * c for key, c in _walked_product(prog, args[1], leaves, memo).items()}
    else:
        raise AssertionError(f"instruction {i} ({op}) is not part of a product expression")
    memo[i] = {key: c for key, c in form.items() if c}
    return memo[i]


@pytest.mark.parametrize("n, kind", [(5, "full"), (257, "full"), (65537, "pruned")])
def test_compiled_products_are_the_product_expressions(n, kind, tower257_full, tower65537):
    # Shared sums regroup the terms of a product; walked back to the parts,
    # every product instruction is still exactly its node's expression.  The
    # root part is the CONST -1, so it reads as a constant (n = 5 uses it).
    tower = {257: tower257_full, 65537: tower65537}.get(n) or build_tower(n, kind)
    prog = compile_to_arith(tower)
    root = _root_part(tower.params)
    leaves = {}
    for node, (_, _, left, right) in zip(tower.nodes, prog.nodes):
        leaves[left], leaves[right] = node.left, node.right
    memo = {}
    for node, (product, _, _, _) in zip(tower.nodes, prog.nodes):
        expr = node.product_expr
        want = {(): expr.constant}
        for term_kind, terms, root_value in (("linear", expr.linear, -1), ("squares", expr.squares, 1)):
            for halves, part in terms:
                if part == root:
                    want[()] += root_value * halves
                else:
                    want[term_kind, part] = halves
        want = {key: c for key, c in want.items() if c}
        assert _walked_product(prog, product, leaves, memo) == want, node.id


def test_sums_are_shared_within_one_stride_only():
    # Four F parts of stride 8 at offsets 0..3 from the split, one
    # coefficient: the shapes d = 1 and d = 2 both occur twice, the smaller
    # wins, and its two sums do not repeat.  With the parts at offsets 1 and
    # 3 of stride 16, the shape (stride 8, stride 16, d = 1) would occur
    # twice, but the group is left as it is.
    same = tuple(x for r in range(4) for x in (2, "F", 0, 8, r))
    [(c, terms)] = Lines().plan(same)
    assert c == 2 and [(src, r) for _, src, _, r in terms] == [(-1, 0), (-1, 2)]
    mixed = tuple(x for r in range(4) for x in (2, "F", 0, 16 if r % 2 else 8, r))
    [(_, terms)] = Lines().plan(mixed)
    assert [src for _, src, _, _ in terms] == [0, 1, 2, 3]


def test_a_negative_first_group_is_subtracted_from_const_0():
    # No derived tower reaches it, but a tower file can: with a constant of
    # 0 and every term of the first coefficient group negative, that group is
    # subtracted from CONST 0, and the result is still the exact product.
    b = _ArithBuilder()
    a, c, d = g_part(1, 1, 2), g_part(1, 2, 2), g_part(2, 1, 2)
    values = {a: Fraction(3, 2), c: Fraction(5, 2), d: Fraction(-7, 4)}
    refs = {part: b.emit("CONST", value=v) for part, v in values.items()}
    expr = LinearCombo(0, ((-2, a), (-2, d), (3, c)), ((-1, a),))
    out = b.combo(expr, refs, 1)
    assert ArithInstr("CONST", (), Fraction(0)) in b.prog.instrs
    vals, rads = [], []
    _run(b.prog, 0, len(b.prog.ops), vals, rads, 64)
    want = sum(Fraction(h, 2) * values[p] for h, p in expr.linear)
    want += sum(Fraction(h, 2) * values[p] ** 2 for h, p in expr.squares)
    assert abs(vals[out] - want * 2**64) <= rads[out]


@pytest.mark.parametrize("terms", [256, 4096])
def test_a_group_past_the_cap_is_left_unshared(terms):
    # One coefficient on distinct G parts of stride 2, two per set: the
    # greedy would take about terms/2 rounds of every pair (0.8 s at 256
    # terms, about an hour at 4,096), so a group past 128 terms is planned
    # as it is.
    pattern = tuple(x for k in range(terms) for x in (2, "G", k // 2, 2, k % 2))
    start = time.perf_counter()
    [(c, planned)] = Lines().plan(pattern)
    assert time.perf_counter() - start < 1
    assert c == 2 and [src for _, src, _, _ in planned] == list(range(terms))


def test_65537_arith_bytes_do_not_depend_on_the_hash_seed(tower65537, tmp_path):
    # The shared sums are chosen with ties broken on numbered lines, never on
    # the hash order of strings, so two hash seeds write the same program.
    tower_path = tmp_path / "t.tower"
    dump_tower(tower65537, str(tower_path))
    dump_arith(compile_to_arith(tower65537), str(tmp_path / "here.arith"))
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    children = [
        subprocess.Popen(
            [sys.executable, "-m", "ngontower.cli", "compile", "--tower", str(tower_path),
             "--target", "arith", "--out", str(tmp_path / f"seed{seed}.arith")],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            stdout=subprocess.DEVNULL,
        )
        for seed in ("1", "2")
    ]
    assert [child.wait() for child in children] == [0, 0]
    here = (tmp_path / "here.arith").read_bytes()
    assert (tmp_path / "seed1.arith").read_bytes() == here
    assert (tmp_path / "seed2.arith").read_bytes() == here


def test_state_is_declared_fields_only(tower17):
    prog = compile_to_arith(tower17)
    for obj in (tower17, *tower17.nodes, prog):
        assert set(vars(obj)) == {f.name for f in fields(obj)}


def test_negative_radicand_rejected():
    prog = ArithProgram()
    c = prog.emit("CONST", value=Fraction(-2))
    s = prog.emit("SQRT", c)
    prog.outputs = {"x": s}
    values, radii = [], []
    with pytest.raises(NegativeRadicand) as exc:
        _run(prog, 0, len(prog.ops), values, radii, 128 + RUN_GUARD_BITS)
    assert exc.value.radicand == (1, 1, 1, 1) and str(exc.value) == "sqrt of -2.0"
    assert values == [-2 << (128 + RUN_GUARD_BITS)] and radii == [0]


def test_radicand_not_proven_positive_rejected():
    # sqrt(2)^2 - 2 comes out within its radius of 0: its sign is not proven.
    prog = ArithProgram()
    two = prog.emit("CONST", value=Fraction(2))
    root = prog.emit("SQRT", two)
    prog.emit("SQRT", prog.emit("SUB", prog.emit("MUL", root, root), two))
    values, radii = [], []
    with pytest.raises(NegativeRadicand):
        _run(prog, 0, len(prog.ops), values, radii, 128 + RUN_GUARD_BITS)
    assert abs(values[-1]) <= radii[-1] > 0
    with pytest.raises(VerificationError, match="sign of instruction 3 is not proven"):
        proven_signs(values, radii)


def test_a_mul_rounds_up_its_radius_over_the_bits_it_drops():
    # 1/16 * 1/16 at scale 2^4: the exact 1/256 is below one unit, so the
    # product floors to 0 and its radius is the one unit dropped.
    prog = ArithProgram()
    sixteenth = prog.emit("CONST", value=Fraction(1, 16))
    prog.emit("MUL", sixteenth, prog.emit("CONST", value=Fraction(1, 16)))
    vals, rads = [], []
    _run(prog, 0, len(prog.ops), vals, rads, 4)
    assert (vals[-1], rads[-1]) == (0, 1)
    assert abs(Fraction(vals[-1], 16) - Fraction(1, 256)) <= Fraction(rads[-1], 16)


def _run_simple(ops):
    prog = ArithProgram()
    idx = None
    for op, *rest in ops:
        if op == "CONST":
            idx = prog.emit("CONST", value=Fraction(rest[0]))
        else:
            idx = prog.emit(op, *rest)
    prog.outputs = {"out": idx}
    geom = lower_to_geom(prog, 128, _signs(prog, 128))
    return execute_geom(geom, 128)["out"]


def test_lowering_simple_cases():
    with mp.workprec(128):
        assert abs(_run_simple([("CONST", 4), ("SQRT", 0)]) - 2) < mp.mpf(2) ** -100
        assert abs(_run_simple([("CONST", 1), ("ADD", 0, 0)]) - 2) < mp.mpf(2) ** -100
        assert abs(_run_simple([("CONST", 2), ("SQRT", 0)]) - mp.sqrt(2)) < mp.mpf(2) ** -100
        assert abs(_run_simple([("CONST", 7), ("CONST", -3), ("MUL", 0, 1)]) + 21) < mp.mpf(2) ** -100


def _node_program(s, q, left_is_larger=True) -> ArithProgram:
    """One node as `compile_to_arith` emits it: the roots of x^2 - s x + q,
    with the sum and the product as constants."""
    prog = ArithProgram()
    sum_idx = prog.emit("CONST", value=Fraction(s))
    prod = prog.emit("CONST", value=Fraction(q))
    half = prog.emit("HALF", sum_idx)
    root = prog.emit("SQRT", prog.emit("SUB", prog.emit("MUL", half, half), prod))
    bigger, smaller = prog.emit("ADD", half, root), prog.emit("SUB", half, root)
    left, right = (bigger, smaller) if left_is_larger else (smaller, bigger)
    prog.nodes.append((prod, root, left, right))
    prog.outputs = {"left": left, "right": right}
    return prog


def _root_circles(geom) -> list[str]:
    """The intersections with a circle centred at a MIDPOINT, by line:
    "axis" for a Carlyle circle's roots, "other" for a semicircle's height."""
    producer = []  # object id -> instruction
    for instr in geom.instrs:
        producer += [instr] * (4 if instr.op == "GIVEN_UNIT" else 1)
    kinds = []
    for instr in geom.instrs:
        if instr.op == "INTERSECT_LC":
            circle = producer[instr.args[1]]
            if circle.op == "CIRCLE" and producer[circle.args[0]].op == "MIDPOINT":
                kinds.append("axis" if instr.args[0] == _GeomBuilder.AXIS else "other")
    return kinds


@pytest.mark.parametrize(
    "s, q, left_is_larger, roots",
    [(3, 0, True, (3, 0)), (1, -6, False, (-2, 3)), (0, -4, True, (2, -2)), (5, 6, True, (3, 2))],
    ids=["q-zero", "q-negative", "s-zero", "general"],
)
def test_carlyle_circle_places_both_roots(s, q, left_is_larger, roots):
    prog = _node_program(s, q, left_is_larger)
    geom = lower_to_geom(prog, 128, _signs(prog, 128))
    assert _root_circles(geom) == ["axis", "axis"]
    assert not any(instr.op == "LINE" for instr in geom.instrs)  # no half^2 product
    res = execute_geom(geom, 128)
    with mp.workprec(128):
        assert abs(res["left"] - roots[0]) < mp.mpf(2) ** -100
        assert abs(res["right"] - roots[1]) < mp.mpf(2) ** -100


def test_program_without_nodes_lowers_through_the_semicircle():
    prog = _node_program(1, -6, left_is_larger=False)
    prog.nodes = []
    geom = lower_to_geom(prog, 128, _signs(prog, 128))
    assert _root_circles(geom) == ["other"]
    res = execute_geom(geom, 128)
    with mp.workprec(128):
        assert abs(res["left"] + 2) < mp.mpf(2) ** -100
        assert abs(res["right"] - 3) < mp.mpf(2) ** -100


def test_lowering_refuses_a_use_of_a_node_interior():
    prog = _node_program(5, 6)
    _, root, _, _ = prog.nodes[0]
    prog.outputs["root"] = prog.emit("ADD", root, root)
    with pytest.raises(ValueError, match="interior"):
        lower_to_geom(prog, 128, _signs(prog, 128))


@pytest.mark.parametrize("n, kind", [(17, "full"), (257, "full"), (65537, "pruned")])
def test_skipped_instructions_stay_inside_their_node(n, kind, tower257_full, tower65537):
    tower = {257: tower257_full, 65537: tower65537}.get(n) or build_tower(n, kind)
    prog = compile_to_arith(tower)
    owner = {}  # skipped instruction -> the instructions of its node
    for node in prog.nodes:
        _, interior = _node_interior(prog, node)
        own = {*interior, node[2], node[3]}
        owner.update((i, own) for i in interior)
    assert len(owner) == 4 * len(tower.nodes)
    for i, instr in enumerate(prog.instrs):
        for arg in instr.args:
            assert arg not in owner or i in owner[arg], (i, instr)
    assert not owner.keys() & set(prog.outputs.values())


def test_unit_circle_axis_intersections():
    # Executing just the givens plus an axis intersection lands on (+-1, 0).
    from ngontower.construction import GeomProgram

    prog = GeomProgram()
    prog.emit("GIVEN_UNIT")
    pos = prog.emit("INTERSECT_LC", 2, 3, branch=1)
    neg = prog.emit("INTERSECT_LC", 2, 3, branch=0)
    prog.emit("POINT_ON_AXIS", pos, name="plus")
    prog.emit("POINT_ON_AXIS", neg, name="minus")
    res = execute_geom(prog, 64)
    assert abs(res["plus"] - 1) < 1e-15 and abs(res["minus"] + 1) < 1e-15


def test_geom_17_matches_tower(tower17):
    prog, signs = evaluate_tower(tower17)
    geom = lower_to_geom(prog, 128, signs)
    res = execute_geom(geom, 128)
    with mp.workprec(128):
        assert abs(res["cos"] - mp.cos(2 * mp.pi / 17)) < mp.mpf(2) ** -64
        assert abs(res["sin"] - mp.sin(2 * mp.pi / 17)) < mp.mpf(2) ** -64


@pytest.mark.parametrize("n", [17, 257])
def test_geom_point_closes_the_polygon(n, tower17, tower257):
    # z = cos + i sin, as the program constructs them, lies on the unit
    # circle and is an n-th root of unity.
    tower = {17: tower17, 257: tower257}[n]
    prog, signs = evaluate_tower(tower)
    res = execute_geom(lower_to_geom(prog, tower.precision, signs), tower.precision)
    with mp.workprec(tower.precision):
        z = mp.mpc(res["cos"], res["sin"])
        assert abs(abs(z) - 1) < mp.mpf(2) ** (-tower.precision // 2)
        assert abs(z**n - 1) < mp.mpf(2) ** (-tower.precision // 4)


def _random_program(rng: random.Random) -> ArithProgram:
    prog = ArithProgram()
    vals: list[Fraction | None] = []

    def emit(op, *args, value=None):
        prog.emit(op, *args, value=value)
        vals.append(None)
        return len(vals) - 1

    idx = emit("CONST", value=Fraction(rng.randint(-12, 12), rng.choice((1, 2, 4))))
    values, _ = arith_values(prog, 96)
    for _ in range(rng.randint(2, 8)):
        op = rng.choice(("CONST", "ADD", "SUB", "MUL", "HALF", "SQRT"))
        n = len(prog.instrs)
        pick = lambda: rng.randrange(n)
        if op == "CONST":
            emit("CONST", value=Fraction(rng.randint(-12, 12), rng.choice((1, 2, 4))))
        elif op == "HALF":
            emit(op, pick())
        elif op in ("ADD", "SUB", "MUL"):
            emit(op, pick(), pick())
        else:  # SQRT
            arg = pick()
            if values[arg] * 20 < 1 << (96 + RUN_GUARD_BITS):  # below 0.05
                continue
            emit(op, arg)
        values, _ = arith_values(prog, 96)
    prog.outputs = {"out": len(prog.instrs) - 1}
    return prog


def test_lowering_fuzz():
    rng = random.Random(20260809)
    checked = 0
    for _ in range(1000):
        prog = _random_program(rng)
        values, _ = arith_values(prog, 96)
        want = _real(values[prog.outputs["out"]], 96)
        if abs(want) > mp.mpf(10) ** 9:  # intercept slopes degenerate far out
            continue
        signs = [(v > 0) - (v < 0) for v in values]  # x - x is exactly 0 in ints
        geom = lower_to_geom(prog, 96, signs)
        got = execute_geom(geom, 96)["out"]
        with mp.workprec(96):
            scale = max(mp.mpf(1), abs(want))
            assert abs(got - want) / scale < mp.mpf(2) ** -48, prog.instrs
        checked += 1
    assert checked >= 950


def test_arith_roundtrip(tmp_path, tower17):
    prog = compile_to_arith(tower17)
    path = tmp_path / "prog.arith"
    dump_arith(prog, str(path))
    loaded = load_arith(str(path))
    assert [i.op for i in loaded.instrs] == [i.op for i in prog.instrs]
    outs = _outputs(loaded, 128)
    with mp.workprec(128):
        assert abs(outs["cos"] - mp.cos(2 * mp.pi / 17)) < mp.mpf(2) ** -64


def test_geom_roundtrip(tmp_path, tower17):
    prog, signs = evaluate_tower(tower17)
    geom = lower_to_geom(prog, 128, signs)
    path = tmp_path / "prog.geom"
    dump_geom(geom, str(path))
    loaded = load_geom(str(path))
    res = execute_geom(loaded, 128)
    with mp.workprec(128):
        assert abs(res["cos"] - mp.cos(2 * mp.pi / 17)) < mp.mpf(2) ** -64


def test_polygon_vertices(tower17):
    # The vertices are cos/sin(2 pi k / 17) as floats, whatever the
    # precision of the tower they are drawn from: 128 bits and 8.
    with mp.workprec(256):
        angles = [2 * mp.pi * k / 17 for k in range(17)]
        ref = [(float(mp.cos(a)), float(mp.sin(a))) for a in angles]
    for tower in (tower17, build_tower(17, "pruned", 8)):
        verts = polygon_vertices(tower, 17)
        assert len(verts) == 17
        assert abs(verts[0][0] - 1) < 1e-12 and abs(verts[0][1]) < 1e-12
        for x, y in verts:
            assert abs(x * x + y * y - 1) < 1e-12
        assert verts == ref, tower.precision


def test_svg_deterministic(tower17):
    a = emit_svg(tower17)
    b = emit_svg(tower17)
    assert a == b
    assert a.startswith('<?xml version="1.0"')
    assert "polygon" in a


def test_svg_zoomed_sector(tower65537):
    svg = emit_svg(tower65537, max_vertices=64)
    assert "polyline" in svg
    assert svg.count("circle") >= 64


@pytest.mark.parametrize("n", [3, 5, 17, 257])
@pytest.mark.parametrize("kind", ["full", "pruned"])
def test_geom_cos_point_within_tolerance(n, kind, tower257_full):
    tower = tower257_full if (n, kind) == (257, "full") else build_tower(n, kind)
    prog, signs = evaluate_tower(tower)
    geom = lower_to_geom(prog, tower.precision, signs)
    res = execute_geom(geom, tower.precision)
    with mp.workprec(tower.precision):
        err = abs(res["cos"] - mp.cos(2 * mp.pi / n))
        assert err <= mp.mpf(2) ** -(tower.precision // 2)


@pytest.mark.parametrize(
    "fixture, max_vertices", [("tower257_full", 0), ("tower257_full", 64), ("tower65537", 64)]
)
def test_svg_ignores_the_working_precision(fixture, max_vertices, request):
    # The vertices and the sector's zoom are computed in ints and floats, so
    # an SVG does not follow whatever mpmath precision its caller has set.
    tower = request.getfixturevalue(fixture)
    svg = emit_svg(tower, max_vertices)
    with mp.workprec(20):
        assert emit_svg(tower, max_vertices) == svg


def test_outputs_65537_match_golden(tower65537, tmp_path):
    # The tower file of the 65537 fixture, the arith and geom programs
    # `compile` writes from it and the whole polygon `render` draws, by
    # SHA-256.
    prog, signs = evaluate_tower(tower65537)
    writers = {
        "tower_65537.tower": lambda path: dump_tower(tower65537, path),
        "program_65537.arith": lambda path: dump_arith(prog, path),
        "program_65537.geom": lambda path: dump_geom(lower_to_geom(prog, tower65537.precision, signs), path),
        "polygon_65537.svg": lambda path: Path(path).write_text(emit_svg(tower65537)),
    }
    got = []
    for name, write in writers.items():
        write(str(tmp_path / name))
        got.append(f"{hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()}  {name}")
    assert got == (GOLDEN / "outputs_65537.sha256").read_text().splitlines()


def test_geom_65537_matches_cosine(tower65537):
    # The full geometric pipeline holds up at depth 15 and 512 bits, and a
    # Carlyle circle per node keeps the construction short.
    prog, signs = evaluate_tower(tower65537)
    geom = lower_to_geom(prog, 512, signs)
    assert len(geom.instrs) <= 34_000
    res = execute_geom(geom, 512)
    with mp.workprec(512):
        assert abs(res["cos"] - mp.cos(2 * mp.pi / 65537)) < mp.mpf(2) ** -256
        assert abs(res["sin"] - mp.sin(2 * mp.pi / 65537)) < mp.mpf(2) ** -256
