"""The arithmetic and geometric programs as columns: the instruction views
read from them, the JSON-lines files written from them, and their size."""

import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from ngontower.construction import (
    _ARITH_OPS,
    _GEOM_KINDS,
    _GEOM_OPS,
    ArithProgram,
    GeomProgram,
    compile_to_arith,
    dump_arith,
    dump_geom,
    load_geom,
    lower_to_geom,
)
from ngontower.tower import build_tower, evaluate_tower

from arith_io import load_arith


def _arith_columns(prog):
    return prog.ops, prog.a, prog.b, prog.consts, prog.outputs


def _geom_columns(prog):
    return prog.ops, prog.args, prog.starts, prog.branch, prog.names, prog.outputs, prog.next_obj


@pytest.fixture(
    scope="module", params=[(17, "full"), (257, "full"), (65537, "pruned")],
    ids=["17-full", "257-full", "65537-pruned"],
)
def programs(request):
    """The tower's arithmetic program and its geometric program, as
    `compile` writes them."""
    n, kind = request.param
    shared = {(257, "full"): "tower257_full", (65537, "pruned"): "tower65537"}
    tower = request.getfixturevalue(shared[n, kind]) if (n, kind) in shared else build_tower(n, kind)
    prog, signs = evaluate_tower(tower)
    return prog, lower_to_geom(prog, tower.precision, signs)


def test_reemitting_the_view_reproduces_the_columns(programs):
    prog, geom = programs
    arith = ArithProgram(outputs=prog.outputs)
    for i in range(len(prog.instrs)):
        instr = prog.instrs[i]
        arith.emit(instr.op, *instr.args, value=instr.value)
    assert _arith_columns(arith) == _arith_columns(prog)
    again = GeomProgram()
    for i in range(len(geom.instrs)):
        instr = geom.instrs[i]
        again.emit(instr.op, *instr.args, branch=instr.branch, name=instr.name)
    assert _geom_columns(again) == _geom_columns(geom)


def test_views_agree_with_the_columns(programs):
    prog, geom = programs
    arith_rows = [
        (_ARITH_OPS[op], tuple(v for v in (x, y) if v >= 0), prog.consts.get(i))
        for i, (op, x, y) in enumerate(zip(prog.ops, prog.a, prog.b))
    ]
    geom_rows = [
        (_GEOM_OPS[op], tuple(geom.args[geom.starts[i]:geom.starts[i + 1]]),
         None if geom.branch[i] < 0 else geom.branch[i], geom.names.get(i))
        for i, op in enumerate(geom.ops)
    ]
    for view, rows in ((prog.instrs, arith_rows), (geom.instrs, geom_rows)):
        n = len(rows)
        assert len(view) == n
        assert [tuple(instr) for instr in view] == rows
        assert tuple(view[-1]) == rows[-1] and tuple(view[-n]) == rows[0]
        for cut in (slice(3, 10), slice(-5, None), slice(None, None, 7), slice(n, n + 3)):
            assert [tuple(instr) for instr in view[cut]] == rows[cut]
        for past in (n, -n - 1):
            with pytest.raises(IndexError):
                view[past]


def test_dumped_programs_load_back_to_equal_columns(programs, tmp_path):
    prog, geom = programs
    dump_arith(prog, str(tmp_path / "p.arith"))
    assert _arith_columns(load_arith(str(tmp_path / "p.arith"))) == _arith_columns(prog)
    dump_geom(geom, str(tmp_path / "p.geom"))
    assert _geom_columns(load_geom(str(tmp_path / "p.geom"))) == _geom_columns(geom)
    # Each output is the object its named step yields: GIVEN_UNIT, step 0,
    # yields objects 0-3 and every later step one, so step i yields i + 3.
    assert list(geom.outputs) == ["p1", "cos", "sin"]
    assert geom.outputs == {name: i + 3 for i, name in geom.names.items()}


def test_programs_hold_a_few_bytes_an_instruction(tower65537):
    # 28,008 arithmetic instructions and 32,459 geometric steps hold 0.37
    # and 0.59 MB as columns; as one object per instruction they held 4.8
    # and 6.8 MB.
    prog, signs = evaluate_tower(tower65537)
    compile_to_arith(tower65537)  # every lazily built input is in place
    held = []
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        arith = compile_to_arith(tower65537)
        held.append(tracemalloc.get_traced_memory()[0] - before)
        before = tracemalloc.get_traced_memory()[0]
        geom = lower_to_geom(arith, tower65537.precision, signs)
        held.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()
    assert (len(arith.ops), len(geom.ops)) == (28_008, 32_459)
    assert held[0] <= 1_000_000 and held[1] <= 1_000_000, held


def _arith_line(instr) -> str:
    d = {"op": instr.op, "args": list(instr.args)}
    if instr.value is not None:
        d["value"] = [instr.value.numerator, instr.value.denominator]
    return json.dumps(d)


def _geom_line(instr) -> str:
    d = {"op": instr.op, "args": list(instr.args)}
    for key in ("branch", "name"):
        if getattr(instr, key) is not None:
            d[key] = getattr(instr, key)
    return json.dumps(d)


def test_dump_lines_are_the_json_of_the_dict_form(tmp_path):
    # Negative and half CONSTs and every other arithmetic op; lowered, steps
    # with 0 to 3 objects, branches 0 and 1 and names (one that JSON
    # escapes).
    prog = ArithProgram()
    neg = prog.emit("CONST", value=Fraction(-3, 2))
    half = prog.emit("CONST", value=Fraction(1, 2))
    total = prog.emit("ADD", neg, half)
    square = prog.emit("MUL", prog.emit("SUB", total, half), prog.emit("HALF", total))
    prog.outputs = {"cos": prog.emit("SQRT", square), 'sin "θ"': square}
    geom = lower_to_geom(prog, 64)
    shapes = {(i.op, len(i.args), i.branch, i.name is not None) for i in geom.instrs}
    assert {s[1] for s in shapes} == {0, 1, 2, 3}
    assert {s[2] for s in shapes} == {None, 0, 1}
    assert ("POINT_ON_AXIS", 1, None, True) in shapes
    for dump, line, kind, program in ((dump_arith, _arith_line, "arith", prog),
                                      (dump_geom, _geom_line, "geom", geom)):
        path = tmp_path / f"p.{kind}"
        dump(program, str(path))
        header = json.dumps({"format": f"ngontower-{kind}", "version": 1, "outputs": program.outputs})
        assert path.read_text().splitlines() == [header] + [line(instr) for instr in program.instrs]


def test_the_geometric_ops_are_those_the_lowering_emits(tower257_full, tower65537):
    # Between them the programs lowered from n = 3 to 65537 use every op a
    # geometric program may hold, so no op is kept that nothing emits.
    used = set()
    for tower in (*(build_tower(n) for n in (3, 5, 17)), tower257_full, tower65537):
        prog, signs = evaluate_tower(tower)
        used.update(lower_to_geom(prog, tower.precision, signs).ops)
    assert {_GEOM_OPS[code] for code in used} == set(_GEOM_KINDS)


GOLDEN_17 = Path(__file__).parent / "golden" / "program_17.geom"


class _Raw(str):
    """A line written as it stands, not as JSON."""


@pytest.mark.parametrize(
    "lineno, edit, message",
    [(8, {"op": "FOLD"}, "line 8: unknown geometric op 'FOLD'"),
     (8, {"op": "INTERSECT_CC"}, "line 8: unknown geometric op 'INTERSECT_CC'"),
     (8, {"branch": -1}, "line 8: branch -1 is not 0 or 1"),
     (8, {"branch": 2}, "line 8: branch 2 is not 0 or 1"),
     (8, {"args": [8, 500]}, r"line 8: INTERSECT_LC args \[8, 500\] are not earlier LC objects"),
     (8, {"args": [8, -1]}, r"line 8: INTERSECT_LC args \[8, -1\] are not earlier LC objects"),
     (8, {"args": [8]}, r"line 8: INTERSECT_LC args \[8\] are not earlier LC objects"),
     (8, {"args": [3, 8]}, r"line 8: INTERSECT_LC args \[3, 8\] are not earlier LC objects"),
     (8, {"args": [8, True]}, r"line 8: INTERSECT_LC args \[8, True\]"),
     (8, {"branch": None}, "line 8: branch None is not 0 or 1"),
     (7, {"branch": 0}, "line 7: PERPENDICULAR_AT takes no branch"),
     (8, {"name": "cos"}, "line 8: INTERSECT_LC takes no name"),
     (77, {"name": 5}, "line 77: name 5 is not a string"),
     (1, {"outputs": {"p1": 28, "cos": 30, "sin": 34}}, "line 1: outputs .* do not match the named steps"),
     (1, [1], r"line 1: \[1\] is not a JSON object"),
     (8, [1], r"line 8: \[1\] is not a JSON object"),
     (8, "x", "line 8: 'x' is not a JSON object"),
     (8, _Raw("{"), r"line 8: not JSON \(Expecting property name"),
     (1, _Raw("ngontower-geom"), r"line 1: not JSON \(Expecting value\)")],
    ids=["unknown-op", "intersect-cc", "branch-minus-one", "branch-two", "arg-past-the-end", "arg-negative", "one-arg",
         "swapped-kinds", "boolean-arg", "missing-branch", "stray-branch", "stray-name", "name-not-a-string",
         "wrong-header", "header-a-list", "step-a-list", "step-a-string", "step-not-json",
         "header-not-json"],
)
def test_load_geom_refuses_a_step_it_cannot_hold(lineno, edit, message, tmp_path):
    # One line of the n = 17 program, as `compile` writes it, edited so that
    # `execute_geom` could not run it (or, for the header, its outputs name
    # objects no named step yields); None deletes a key, an edit that is not
    # a dict replaces the whole line, and a `_Raw` one is written unencoded.
    lines = [json.loads(line) for line in GOLDEN_17.read_text().splitlines()]
    if isinstance(edit, dict):
        edit = {k: v for k, v in {**lines[lineno - 1], **edit}.items() if v is not None}
    lines[lineno - 1] = edit
    path = tmp_path / "bad.geom"
    path.write_text("".join((d if isinstance(d, _Raw) else json.dumps(d)) + "\n" for d in lines))
    with pytest.raises(ValueError, match=message):
        load_geom(str(path))

