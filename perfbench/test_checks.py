"""Fast tests of the benchmark's own checks, tracing and result handling,
at n <= 257.

    python3 -m pytest -q perfbench

Each output check must pass on the program's output and reject a damaged
copy of it, and a failed operation must make a run incorrect.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ngontower.construction import (  # noqa: E402
    compile_to_arith,
    dump_arith,
    dump_geom,
    emit_svg,
    lower_to_geom,
)
from ngontower.invariant_sets import validate_factor  # noqa: E402
from ngontower.residues import FermatParams  # noqa: E402
from ngontower.tower import build_tower  # noqa: E402
from ngontower.towerfile import dump_tower  # noqa: E402


@pytest.fixture(scope="module", params=[(17, "full"), (257, "pruned")], ids=["17-full", "257-pruned"])
def tower(request):
    n, schedule = request.param
    return build_tower(n, kind=schedule)


def _rewrite(path, lines):
    Path(path).write_text("\n".join(json.dumps(d) for d in lines) + "\n")


def _read(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


@pytest.mark.parametrize("n", [3, 5, 17, 257])
def test_valid_factors_agree_with_the_program(n):
    params = FermatParams.from_n(n)
    own = workloads.valid_factors(n)
    assert own == [q for q in range(2, n) if validate_factor(q, params)][: len(own)]
    assert all(workloads.factor_for(n, seed) in own for seed in range(20))


def test_paper_factor_is_seed_zero():
    assert all(workloads.factor_for(n, 0) == 3 for n in (17, 257, 65537))


def test_tower_check_accepts_and_rejects_perturbed_value(tower, tmp_path):
    path = tmp_path / "t.tower"
    dump_tower(tower, str(path))
    info = checks.check_tower(path, tower.params.n)
    assert info.nodes == len(tower.nodes)

    lines = _read(path)
    node = lines[1 + len(tower.nodes) // 2]
    node["value_left"]["mpf"][1] = hex(int(node["value_left"]["mpf"][1], 16) ^ 0b1000)
    _rewrite(path, lines)
    with pytest.raises(checks.CheckFailed, match="do not sum"):
        checks.check_tower(path, tower.params.n)


def test_tower_check_rejects_wrong_p1(tmp_path):
    tower = build_tower(17)
    path = tmp_path / "t.tower"
    dump_tower(tower, str(path))
    lines = _read(path)
    last = lines[-1]
    last["value_left"], last["value_right"] = last["value_right"], last["value_left"]
    _rewrite(path, lines)
    with pytest.raises(checks.CheckFailed, match="p1"):
        checks.check_tower(path, 17)


def test_arith_check_accepts_and_rejects_changed_constant(tower, tmp_path):
    path = tmp_path / "t.arith"
    dump_arith(compile_to_arith(tower), str(path))
    n, nodes = tower.params.n, len(tower.nodes)
    checks.check_arith(path, n, tower.precision, nodes)

    lines = _read(path)
    consts = [d for d in lines[1:] if d["op"] == "CONST"]
    consts[len(consts) // 2]["value"][0] += 1
    _rewrite(path, lines)
    with pytest.raises(checks.CheckFailed):
        checks.check_arith(path, n, tower.precision, nodes)


def test_arith_check_counts_square_roots(tower, tmp_path):
    path = tmp_path / "t.arith"
    dump_arith(compile_to_arith(tower), str(path))
    with pytest.raises(checks.CheckFailed, match="square roots"):
        checks.check_arith(path, tower.params.n, tower.precision, len(tower.nodes) + 1)


def test_geom_check_accepts_and_rejects_moved_cos_point(tower, tmp_path):
    path = tmp_path / "t.geom"
    dump_geom(lower_to_geom(compile_to_arith(tower), tower.precision), str(path))
    steps = checks.check_geom(path, tower.params.n, tower.precision)
    assert steps == len(path.read_text().splitlines()) - 1

    lines = _read(path)
    cos_point = next(d for d in lines[1:] if d.get("name") == "cos")
    cos_point["args"] = [1]  # the unit point (1, 0)
    _rewrite(path, lines)
    with pytest.raises(checks.CheckFailed, match="cos point"):
        checks.check_geom(path, tower.params.n, tower.precision)


@pytest.mark.parametrize("max_vertices", [0, 16])
def test_svg_check_accepts_and_rejects_moved_vertex(tower, tmp_path, max_vertices):
    n = tower.params.n
    vertices = min(n, max_vertices) if max_vertices else n
    path = tmp_path / "t.svg"
    path.write_text(emit_svg(tower, max_vertices=max_vertices))
    assert checks.check_svg(path, n, vertices) == vertices
    with pytest.raises(checks.CheckFailed, match="vertices"):
        checks.check_svg(path, n, vertices - 1)

    text = path.read_text()
    start = text.index('points="') + len('points="')
    points = text[start : text.index('"', start)].split()
    x, y = map(float, points[5].split(","))
    points[5] = f"{x + 0.001:.6f},{y:.6f}"
    path.write_text(text[:start] + " ".join(points) + text[text.index('"', start) :])
    with pytest.raises(checks.CheckFailed):
        checks.check_svg(path, n, vertices)


def test_log_checks_compare_counts_with_the_tower(tmp_path):
    info = checks.TowerInfo(n=17, precision=128, nodes=3)
    log = tmp_path / "build.log"
    log.write_text("oracle-verified product expressions = 3\np1 verified\n")
    checks.check_build_log(log, info, oracle=True)
    with pytest.raises(checks.CheckFailed):
        checks.check_build_log(log, info, oracle=False)
    log.write_text("tower for n=17 verified: 3 nodes, oracle-checked 2 product expressions\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_verify_log(log, info, oracle=True)


def test_every_trace_target_resolves():
    targets = [t for group in layers.SPANS + layers.COUNTS for t in group.targets]
    assert [t for t in targets if layers.resolve(t) is None] == []


def test_layer_totals_are_self_times():
    spans = [
        ["tower.evaluate", 0.0, 3.0, -1],
        ["tower.signs", 0.5, 1.5, 0],
        ["towerfile.load", 4.0, 5.0, -1],
    ]
    counts = {"tower.cosines": 8}
    trace = {"spans": spans, "counts": counts, "install_s": 0.5}
    totals = layers.layer_totals([trace], op_seconds=6.0)
    assert totals["tower.evaluate_s"] == pytest.approx(2.0)
    assert totals["tower.signs_s"] == pytest.approx(1.0)
    assert totals["cli.self_s"] == pytest.approx(1.5)
    assert totals["towerfile.loads"] == 1
    assert totals["tower.cosines"] == 8
    assert layers.calls_by_layer(totals)["oracle.mul"] == 0


def test_benchmark_json_lists_what_a_run_reports():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, layers.unit(name)) for name in layers.LAYER_METRICS
    ]


class _PassingChecker:
    def command(self, cmd):
        return 7 if cmd.kind == "geom" else 0


def _summarize(codes_per_op, traced=False):
    cmds = [
        workloads.Command(["build"], "build", "t", 17),
        workloads.Command(["compile"], "geom", "t", 17, out="g"),
    ]
    ops = [{"seconds": 2.0, "codes": codes, "peak_kib": 2048} for codes in codes_per_op]
    result = {"ops": ops}
    return run.summarize("sweep-small", [], [(cmds, traced) for _ in ops], 1.5, result, _PassingChecker())


def test_a_failed_operation_makes_the_run_incorrect():
    report = _summarize([[0, 0], [0, 1], [0, 0]])
    assert (report["correct"], report["attempted"], report["failed"]) == (False, 3, 1)
    assert report["metrics"]["op_s"]["value"] == 2.0
    assert report["metrics"]["geom_steps"]["value"] == 7


def test_no_metric_without_a_successful_operation():
    with pytest.raises(run.BenchError):
        _summarize([[1, 0], [0, 2]])


def test_a_clean_run_is_correct():
    report = _summarize([[0, 0]])
    assert (report["correct"], report["failed"]) == (True, 0)
    assert set(report["metrics"]) == set(run.END_TO_END)


def test_wrapped_call_cost_is_positive_and_small():
    assert 0 < layers.wrapped_call_s(10_000) < 1e-3
