import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import pytest
from mpmath.libmp import from_man_exp

from ngontower import cli
from ngontower.cli import main
from ngontower.invariant_sets import PartRef, build_invariant_sets
from ngontower.residues import FermatParams
from ngontower.tower import MAX_PRECISION, CosineCache

from oracle_helpers import prime_below_2_31
from towerfile_reference import value_json

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_tables_sets_257_golden(capsys):
    code, out = run_cli(capsys, "tables", "--n", "257", "--kind", "sets")
    assert code == 0
    assert out == (GOLDEN / "sets_257.txt").read_text()


def test_tables_sets_17(capsys):
    code, out = run_cli(capsys, "tables", "--n", "17", "--kind", "sets")
    assert code == 0
    assert out == "1 2 4 8\n3 6 5 7\n"
    assert run_cli(capsys, "tables", "--n=17", "--kind=sets") == (0, out)


def test_tables_mu_golden(capsys):
    code, out = run_cli(capsys, "tables", "--n", "65537", "--kind", "mu", "--m", "3")
    assert code == 0
    assert out == (GOLDEN / "mu_65537_m3.txt").read_text()


def test_tables_ksets_golden(capsys):
    code, out = run_cli(capsys, "tables", "--n", "65537", "--kind", "ksets", "--m", "6")
    assert code == 0
    assert out == (GOLDEN / "ksets_65537_m6.txt").read_text()
    assert "K(10,64) = 26" in out


def test_tables_signs_golden(capsys):
    # All eleven F-level sign lists, from the cosine sums of whole sets.
    code, out = run_cli(capsys, "tables", "--n", "65537", "--kind", "signs")
    assert code == 0
    assert out == (GOLDEN / "signs_65537.txt").read_text()


def test_build_257_full_matches_golden(capsys, tmp_path):
    # The full 257 tower's bytes, as `build` wrote them before the cosine
    # sums walked each set's doubling orbit.
    path = tmp_path / "tower_257_full.tower"
    code, _ = run_cli(capsys, "build", "--n", "257", "--schedule", "full", "--out", str(path))
    assert code == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert f"{digest}  {path.name}\n" == (GOLDEN / "tower_257_full.sha256").read_text()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["--n", "257", "--schedule", "full"], "report_257_full.txt"),
        (["--n", "65537"], "report_65537.txt"),
    ],
    ids=["257-full", "65537-pruned"],
)
def test_build_report_matches_golden(argv, golden, capsys):
    # The whole report byte for byte, its reference diff included.
    code, out = run_cli(capsys, "build", *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_tables_product_square(capsys):
    code, out = run_cli(capsys, "tables", "--n", "257", "--kind", "product", "--i", "1", "--j", "9")
    assert code == 0
    assert out.strip() == "0 + 2*G1 + 2*G3 + 1*G5 + 2*G6 + 1*G7 + 2*G9 + 2*G11 + 1*G13 + 2*G14 + 1*G15"
    code, out = run_cli(capsys, "tables", "--n", "257", "--kind", "square", "--i", "1")
    assert out.strip() == "16 + 3*G1 + 4*G2 + 2*G3 + 2*G6 + 2*G8 + 2*G9"


def test_tables_signs(capsys):
    code, out = run_cli(capsys, "tables", "--n", "257", "--kind", "signs")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step 1: 1"
    assert lines[1] == "step 2: 1 2"
    assert lines[2] == "step 3: 1 3"


def test_tables_missing_selector(capsys):
    code, _ = run_cli(capsys, "tables", "--n", "257", "--kind", "mu")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "product", "--i", "1"], "--kind product needs --i and --j"),
        (["--kind", "product", "--j", "1"], "--kind product needs --i and --j"),
        (["--kind", "square"], "--kind square needs --i"),
        (["--kind", "ksets"], "--kind ksets needs --m"),
    ],
    ids=["product-no-j", "product-no-i", "square-no-i", "ksets-no-m"],
)
def test_tables_selector_missing_is_named(argv, message, capsys):
    code = main(["tables", "--n", "17", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_tables_signs_one_step(capsys):
    code, out = run_cli(capsys, "tables", "--n", "257", "--kind", "signs", "--m", "2")
    assert code == 0
    assert out == "step 2: 1 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["tables", "--n", "17", "--kind", "mu", "--m", "9"],
        ["tables", "--n", "17", "--kind", "ksets", "--m", "7"],
        ["tables", "--n", "17", "--kind", "product", "--i", "0", "--j", "1"],
        ["tables", "--n", "17", "--kind", "signs", "--factor", "0"],
        ["build", "--n", "17", "--precision", "-5"],
        ["render", "--tower", "{tower}", "--out", "{svg}", "--max-vertices", "-1"],
        ["build", "--n", "17", "--precision", "10000000"],
        ["tables", "--n", "17", "--kind", "signs", "--m", "9"],
        ["tables", "--n", "17", "--kind", "signs", "--m", "-1"],
        # n = 5 has one invariant set, so no factor seeds a start, but one below 1 is refused.
        ["build", "--n", "5", "--factor", "0"],
        ["build", "--n", "5", "--factor", "-7"],
        ["constructible", "2"],
    ],
    ids=["mu-level", "ksets-level", "product-set", "tables-factor", "build-precision",
         "render-max-vertices", "build-precision-over-cap", "signs-step", "signs-step-negative",
         "build-factor-0", "build-factor-negative", "constructible-2"],
)
def test_argument_out_of_range_is_a_usage_error(argv, tmp_path, capsys):
    if "{tower}" in argv:
        tower_path = str(tmp_path / "t17.tower")
        run_cli(capsys, "build", "--n", "17", "--out", tower_path)
        argv = [a.format(tower=tower_path, svg=tmp_path / "p.svg") for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "p.svg").exists()


# Each failure kind of the argument parser, on each command where it
# applies: the command line, and the words its one error line must name.
USAGE_ERRORS = {
    "no-command": ("", "no command"),
    "unknown-command": ("bogus", "bogus"),
    "build-unknown-option": ("build --n 17 --bogus 1", "build --bogus"),
    "verify-unknown-option": ("verify --tower t --bogus", "verify --bogus"),
    "tables-unknown-option": ("tables --n 17 --kind sets --k 1", "tables --k"),
    "compile-unknown-option": ("compile --tower t --target arith --out p --x=1", "compile --x"),
    "render-unknown-option": ("render --tower t --out p --vertices 5", "render --vertices"),
    "constructible-unknown-option": ("constructible 17 --n 17", "constructible --n"),
    "verify-precision-is-unknown": ("verify --tower t --precision 64", "verify unknown --precision"),
    "tables-precision-is-unknown": ("tables --n 17 --kind signs --precision 8", "tables unknown --precision"),
    "build-missing-value": ("build --n 17 --out", "build --out"),
    "build-value-is-an-option": ("build --out --n 17", "build --out"),
    "verify-missing-value": ("verify --tower", "verify --tower"),
    "tables-missing-value": ("tables --n 17 --kind mu --m", "tables --m"),
    "compile-missing-value": ("compile --tower t --target arith --out", "compile --out"),
    "render-missing-value": ("render --tower t --out p --max-vertices", "render --max-vertices"),
    "build-non-integer": ("build --n x", "build --n 'x'"),
    "tables-non-integer": ("tables --n 17 --kind square --i=", "tables --i ''"),
    "render-non-integer": ("render --tower t --out p --max-vertices all", "render --max-vertices 'all'"),
    "render-fraction": ("render --tower t --out p --max-vertices=1.5", "render --max-vertices '1.5'"),
    "constructible-non-integer": ("constructible x", "constructible n 'x'"),
    "build-choice": ("build --n 17 --schedule fast", "build --schedule 'fast'"),
    "tables-choice": ("tables --n 17 --kind cubes", "tables --kind 'cubes'"),
    "compile-choice": ("compile --tower t --target=svg --out p", "compile --target 'svg'"),
    "build-required": ("build --schedule full", "build --n"),
    "verify-required": ("verify --no-oracle", "verify --tower"),
    "tables-required": ("tables --n 17", "tables --kind"),
    "compile-required": ("compile --tower t --target geom", "compile --out"),
    "render-required": ("render --out p", "render --tower"),
    "constructible-required": ("constructible", "constructible n"),
    "build-abbreviation": ("build --n 3 --sched full", "build --sched"),
    "verify-abbreviation": ("verify --tow t", "verify --tow"),
    "tables-abbreviation": ("tables --n 17 --kin sets", "tables --kin"),
    "compile-abbreviation": ("compile --tower t --targ arith --out p", "compile --targ"),
    "render-abbreviation": ("render --tower t --out p --max 5", "render --max"),
    "constructible-abbreviation": ("constructible 17 --he", "constructible --he"),
    "flag-with-value": ("verify --tower t --no-oracle=yes", "verify --no-oracle"),
    "extra-argument": ("constructible 17 5", "constructible '5'"),
}


@pytest.mark.parametrize("line, named", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_every_bad_argument_is_one_error_line(line, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # nothing is read or written, even with a bad path
    code, err = _stderr_of(capsys, line.split())
    assert code == 2
    assert err.startswith("error: ")
    assert all(word in err for word in named.split()), err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *cli._OPTIONS])
def test_help_lists_every_option_with_its_default(command, flag, capsys):
    argv = [flag] if command is None else [command, flag]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    for name in cli._OPTIONS if command is None else [command]:
        _, what, options = cli._OPTIONS[name]
        assert f"{name}: {what}" in lines
        for option, (kind, default, text) in options.items():
            if default == "required":
                shown = "required"
            elif kind is None:
                shown = "default: off"
            else:
                shown = f"default: {'none' if default is None else default}"
            assert any(line.startswith(f"  {option} ") and line.endswith(f"{text} ({shown})")
                       for line in lines), option


def test_only_build_takes_a_precision(capsys):
    # Every tower is checked at the one precision it carries, which only
    # `build` sets.
    for command in cli._OPTIONS:
        assert main([command, "--help"]) == 0
        assert ("--precision" in capsys.readouterr().out) == (command == "build"), command


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--n", "17", "--out", "{missing}/t.tower"],
        ["compile", "--tower", "{tower}", "--target", "arith", "--out", "{missing}/p.arith"],
        ["render", "--tower", "{tower}", "--out", "{missing}/p.svg"],
        ["verify", "--tower", "{missing}/t.tower"],
    ],
    ids=["build-out", "compile-out", "render-out", "verify-tower"],
)
def test_unusable_path_is_a_usage_error(argv, tmp_path, capsys):
    tower_path = str(tmp_path / "t17.tower")
    run_cli(capsys, "build", "--n", "17", "--out", tower_path)
    missing = str(tmp_path / "missing")
    argv = [a.format(tower=tower_path, missing=missing) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert missing in captured.err


def test_build_invalid_n(capsys):
    assert main(["build", "--n", "9"]) == 2


def test_build_3_keeps_its_default_factor(capsys):
    # n = 3's default factor 3 lies outside [1, n - 1]; with one set it is unused.
    code, out = run_cli(capsys, "build", "--n", "3")
    assert code == 0
    assert out.endswith("p1 verified\n")


def test_tower_header_factor_0_is_refused(tmp_path, capsys):
    tower_path = tmp_path / "t5.tower"
    run_cli(capsys, "build", "--n", "5", "--out", str(tower_path))
    lines = tower_path.read_text().splitlines()
    header = json.loads(lines[0])
    header["factor"] = 0
    lines[0] = json.dumps(header)
    tower_path.write_text("\n".join(lines) + "\n")
    code, err = _stderr_of(capsys, ["verify", "--tower", str(tower_path)])
    assert code == 2
    assert err == f"error: {tower_path} line 1: InvalidFactor: factor 0 is not positive\n"


def test_build_verify_roundtrip(tmp_path, capsys):
    tower_path = tmp_path / "t17.tower"
    code, out = run_cli(capsys, "build", "--n", "17", "--out", str(tower_path))
    assert code == 0
    assert "p1 verified" in out
    code, out = run_cli(capsys, "verify", "--tower", str(tower_path))
    assert code == 0


def test_verify_detects_corruption(tmp_path, capsys):
    tower_path = tmp_path / "t17.tower"
    run_cli(capsys, "build", "--n", "17", "--out", str(tower_path))
    lines = tower_path.read_text().splitlines()
    # Bump one product-expression coefficient by 1.
    import json

    node = json.loads(lines[2])
    node["product"]["linear"][0][0] += 1
    lines[2] = json.dumps(node)
    tower_path.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--tower", str(tower_path)])
    assert code == 1


def test_coefficient_moved_by_the_prime_is_refused(tmp_path, capsys):
    # Moved by l halves, l the largest prime = 1 (mod 17) below 2^31, node
    # 2's coefficient has the value it had modulo l; the oracle, which
    # expands over Z, refuses it.
    ell = prime_below_2_31(17)

    def move(node):
        term = node["product"]["linear"][0]
        halves = term[0] * (2 // term[1])
        halves += -ell if halves > 0 else ell
        term[:2] = [halves, 2] if halves % 2 else [halves // 2, 1]

    tower_path = _tampered_17(tmp_path, capsys, move, node_id=2)
    code, err = _stderr_of(capsys, ["verify", "--tower", str(tower_path)])
    assert code == 1
    assert err.startswith("verification failure: node 2: product of ")
    assert err.rstrip().endswith(" period coefficients")


def test_build_257_report(tmp_path, capsys):
    code, out = run_cli(capsys, "build", "--n", "257")
    assert code == 0
    assert "nodes = 15" in out
    assert "reference diff" in out
    assert "known misprint" in out
    assert "p1 verified" in out


def test_compile_and_render(tmp_path, capsys):
    tower_path = tmp_path / "t17.tower"
    run_cli(capsys, "build", "--n", "17", "--out", str(tower_path))
    code, _ = run_cli(capsys, "compile", "--tower", str(tower_path), "--target", "arith",
                      "--out", str(tmp_path / "p.arith"))
    assert code == 0
    code, _ = run_cli(capsys, "compile", "--tower", str(tower_path), "--target", "geom",
                      "--out", str(tmp_path / "p.geom"))
    assert code == 0
    code, _ = run_cli(capsys, "render", "--tower", str(tower_path),
                      "--out", str(tmp_path / "p.svg"))
    assert code == 0
    svg = (tmp_path / "p.svg").read_text()
    assert svg == (GOLDEN / "polygon_17.svg").read_text()
    for target in ("arith", "geom"):
        written = (tmp_path / f"p.{target}").read_bytes()
        assert written == (GOLDEN / f"program_17.{target}").read_bytes()


def test_render_negative_max_vertices_is_a_usage_error(tmp_path, capsys):
    tower_path = str(tmp_path / "t17.tower")
    run_cli(capsys, "build", "--n", "17", "--out", tower_path)
    svg = tmp_path / "p.svg"
    code = main(["render", "--tower", tower_path, "--out", str(svg), "--max-vertices", "-5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --max-vertices") and captured.err.count("\n") == 1
    assert not svg.exists()


def test_constructible(capsys):
    code, out = run_cli(capsys, "constructible", "170")
    assert code == 0 and out.startswith("yes")
    code, out = run_cli(capsys, "constructible", "9")
    assert code == 0 and out.startswith("no")
    code, out = run_cli(capsys, "constructible", "65537")
    assert code == 0 and out.startswith("yes")
    code, out = run_cli(capsys, "constructible", "257")
    assert code == 0 and out.startswith("yes")
    code, out = run_cli(capsys, "constructible", "7")
    assert code == 0 and out.startswith("no")


def run_console(*argv):
    """`python -m ngontower.cli` in a child that imports this checkout."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "ngontower.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_script_entry():
    result = run_console("constructible", "12")
    assert result.returncode == 0
    assert result.stdout.startswith("yes")


def test_truncated_tower_is_a_usage_error(tmp_path, capsys):
    tower_path = tmp_path / "t17.tower"
    run_cli(capsys, "build", "--n", "17", "--out", str(tower_path))
    cut = tmp_path / "cut.tower"
    cut.write_bytes(tower_path.read_bytes()[:1500])
    for argv in (
        ["verify", "--tower", str(cut)],
        ["compile", "--tower", str(cut), "--target", "geom", "--out", str(tmp_path / "p.geom")],
        ["render", "--tower", str(cut), "--out", str(tmp_path / "p.svg")],
    ):
        result = run_console(*argv)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert f"{cut} line" in result.stderr


def test_tower_header_n_beyond_range(tmp_path, capsys):
    # The header is refused before any table for n is built.
    tower_path = tmp_path / "huge.tower"
    header = {"format": "ngontower-tower", "version": 1, "n": 4294967297,
              "schedule": "pruned", "precision": 128, "factor": 3}
    tower_path.write_text(json.dumps(header) + "\n")
    start = time.perf_counter()
    assert main(["verify", "--tower", str(tower_path)]) == 2
    assert time.perf_counter() - start < 1
    assert "4294967297" in capsys.readouterr().err
    result = run_console("verify", "--tower", str(tower_path))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def _edited_17(tmp_path, capsys, edit):
    """An n = 17 pruned tower file (header and nodes 0..2, one a line) whose
    list of lines was edited in place by `edit`."""
    tower_path = tmp_path / "t17.tower"
    run_cli(capsys, "build", "--n", "17", "--out", str(tower_path))
    lines = tower_path.read_text().splitlines()
    edit(lines)
    tower_path.write_text("\n".join(lines) + "\n")
    return tower_path


def _on_node(change, node_id):
    """A line edit that applies `change` to the JSON object of node `node_id`."""

    def edit(lines):
        node = json.loads(lines[1 + node_id])
        change(node)
        lines[1 + node_id] = json.dumps(node)

    return edit


def _tampered_17(tmp_path, capsys, change, node_id=0):
    """An n = 17 tower file whose node `node_id` was edited by `change`."""
    return _edited_17(tmp_path, capsys, _on_node(change, node_id))


def _flip_sign(node):
    node["left_is_larger"] = not node["left_is_larger"]


def _constant_40(node):
    node["product"]["constant"] = [40, 1]


def _stderr_of(capsys, argv):
    """Exit code and stderr of `main(argv)` run in-process: an exception
    escaping `main` fails the test, and nothing may be printed to stdout."""
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    return code, captured.err


def test_verify_detects_flipped_stored_sign(tmp_path, capsys):
    tower_path = _tampered_17(tmp_path, capsys, _flip_sign)
    code, err = _stderr_of(capsys, ["verify", "--tower", str(tower_path)])
    assert code == 1
    assert err.startswith("verification failure: node 0: ")


@pytest.mark.parametrize("change", [_flip_sign, _constant_40], ids=["flipped-sign", "constant-40"])
def test_compile_and_render_fail_cleanly_on_tampered_tower(change, tmp_path, capsys):
    tower_path = _tampered_17(tmp_path, capsys, change)
    for argv in (
        ["compile", "--tower", str(tower_path), "--target", "arith", "--out", str(tmp_path / "p.arith")],
        ["compile", "--tower", str(tower_path), "--target", "geom", "--out", str(tmp_path / "p.geom")],
        ["render", "--tower", str(tower_path), "--out", str(tmp_path / "p.svg")],
    ):
        code, err = _stderr_of(capsys, argv)
        assert code == 1
        assert err.startswith("verification failure: ")
        assert not Path(argv[-1]).exists()


def _unsign(node):
    node["left_is_larger"] = None


def test_unsigned_tower_renders_like_the_signed_one(tmp_path, capsys):
    # render and compile resolve the null sign from cosine sums, as
    # verify --no-oracle does, and write what the signed tower gives.
    signed = tmp_path / "signed.tower"
    run_cli(capsys, "build", "--n", "17", "--out", str(signed))
    unsigned = _tampered_17(tmp_path, capsys, _unsign)
    for tower_path, prefix in ((signed, "signed"), (unsigned, "unsigned")):
        for command, out in (
            (["render"], "svg"),
            (["compile", "--target", "arith"], "arith"),
            (["compile", "--target", "geom"], "geom"),
        ):
            argv = [*command, "--tower", str(tower_path), "--out", str(tmp_path / f"{prefix}.{out}")]
            code, _ = run_cli(capsys, *argv)
            assert code == 0
    for out in ("svg", "arith", "geom"):
        assert (tmp_path / f"unsigned.{out}").read_bytes() == (tmp_path / f"signed.{out}").read_bytes()


def _linear_term_repointed(node):
    # G1(2,2) -> G1(1,2): node 2's product is wrong, and so is the p1 it gives.
    node["product"]["linear"][0][2]["offset"] = 1


def _node_0_off_and_node_2_negative(lines):
    # Node 0 solves x^2 + x - 3 instead of x^2 + x - 4, so its values miss
    # their cosine sums, and node 2's radicand comes out about -41.4.
    _on_node(_constant_minus_3, 0)(lines)
    _on_node(_constant_40, 2)(lines)


def _constant_minus_3(node):
    node["product"]["constant"] = [-3, 1]


@pytest.mark.parametrize(
    "edit, argvs, message",
    [
        pytest.param(
            _on_node(_linear_term_repointed, 2),
            [
                ["verify", "--no-oracle"],
                ["compile", "--target", "arith", "--out", "p.arith"],
                ["render", "--out", "p.svg"],
            ],
            "node 2: p1 = 2.429962035613623076867623 but cosine sum gives 1.864944458808711609146232",
            id="p1-off-before-sin-radicand",
        ),
        pytest.param(
            _on_node(_constant_40, 0), [["render", "--out", "p.svg"]],
            "node 0: negative discriminant -39.75",
            id="negative-discriminant",
        ),
        pytest.param(
            _node_0_off_and_node_2_negative,
            [
                ["verify", "--no-oracle"],
                ["compile", "--target", "arith", "--out", "p.arith"],
                ["render", "--out", "p.svg"],
            ],
            "node 0: G1 = 1.302775637731994646559611 but cosine sum gives 1.561552812808830274910705",
            id="value-off-before-later-radicand",
        ),
    ],
)
def test_first_failing_node_is_reported(edit, argvs, message, tmp_path, capsys):
    # Nodes are checked as they land: each node's values are checked when its
    # roots are computed, before any later node runs, so the first node that
    # goes wrong is the one reported, even when a later radicand is negative.
    tower_path = _edited_17(tmp_path, capsys, edit)
    for command, *rest in argvs:
        rest = [str(tmp_path / a) if a.startswith("p.") else a for a in rest]
        code, err = _stderr_of(capsys, [command, "--tower", str(tower_path), *rest])
        assert code == 1
        assert message in err
    assert not (tmp_path / "p.svg").exists() and not (tmp_path / "p.arith").exists()


def test_a_sqrt_off_by_2_to_the_minus_300_fails_verify(tower65537, tmp_path, capsys, monkeypatch):
    # Every SQRT adds 2^-300: node 0's values move by far less than
    # 2^-(precision // 2) = 2^-256, the rule a node value was once checked
    # by, but by far more than their radius and the cosine sums' bound.
    from ngontower import arith
    from ngontower.towerfile import dump_tower

    path = tmp_path / "t.tower"
    dump_tower(tower65537, str(path))
    offset = 1 << (tower65537.precision + arith.RUN_GUARD_BITS - 300)
    monkeypatch.setattr(arith, "isqrt", lambda x: math.isqrt(x) + offset)
    code, err = _stderr_of(capsys, ["verify", "--tower", str(path), "--no-oracle"])
    assert code == 1
    assert err.startswith("verification failure: node 0: ") and "but cosine sum gives" in err
    missed_by = mp.mpf(err.rsplit("(err ", 1)[1].rstrip(")\n"))
    assert mp.mpf(2) ** -301 < missed_by < mp.mpf(2) ** -256


@pytest.mark.parametrize(
    "share, message",
    [
        (lambda v: abs(v), "node 0: the sign of instruction 0 is not proven"),
        (lambda v: abs(v) // 2, "node 1: discriminant 1.60961 not proven positive"),
    ],
    ids=["sign", "discriminant"],
)
def test_a_radius_that_proves_nothing_fails_verify(share, message, tmp_path, capsys, monkeypatch):
    # Each radius a run leaves is raised to `share` of its value's magnitude.
    # With all of it no sign is proven, from node 0's first CONST on.  With
    # half, node 0 still passes its check, but node 1's discriminant, though
    # positive, carries a larger radius, so its SQRT is refused.
    from ngontower import arith

    path = tmp_path / "t17.tower"
    run_cli(capsys, "build", "--n", "17", "--out", str(path))
    run = arith._run

    def inflated(prog, first, end, vals, rads, scale):
        run(prog, first, end, vals, rads, scale)
        rads[first:] = [max(r, share(v)) for v, r in zip(vals[first:], rads[first:])]

    monkeypatch.setattr(arith, "_run", inflated)
    code, err = _stderr_of(capsys, ["verify", "--tower", str(path), "--no-oracle"])
    assert code == 1
    assert err.startswith("verification failure: ") and message in err


def test_build_257_full_at_8_bits(capsys):
    # Every sign is proven from cosine sums at 2^-(8+64), whatever the
    # precision, so 8 bits build and check the whole 257 tower.
    code, out = run_cli(capsys, "build", "--n", "257", "--schedule", "full", "--precision", "8")
    assert code == 0
    assert "precision = 8 bits" in out and out.endswith("p1 verified\n")


@pytest.mark.parametrize("precision", [1, 2, 4, 6])
@pytest.mark.parametrize("schedule", ["full", "pruned"])
@pytest.mark.parametrize("n", [5, 17, 257])
def test_a_tower_written_at_any_precision_passes_its_own_verify(n, schedule, precision, tmp_path, capsys):
    # A stored value or margin is a p-bit rounding, which for a value above
    # 2^(p/2) is more than 2^-(p//2) from its cosine sum: the tolerance also
    # covers two units in the p-th bit of the larger half's sum.  Its render
    # is the true polygon, byte for byte the default precision's: the
    # vertices are seeded from the cosine table, not from p1 at p bits.
    path, svg = tmp_path / "t.tower", tmp_path / "t.svg"
    args = ["--n", str(n), "--schedule", schedule, "--precision", str(precision), "--no-oracle"]
    assert run_cli(capsys, "build", *args, "--out", str(path))[0] == 0
    assert run_cli(capsys, "verify", "--tower", str(path), "--no-oracle")[0] == 0
    assert run_cli(capsys, "render", "--tower", str(path), "--out", str(svg))[0] == 0
    expected = GOLDEN / f"polygon_{n}.svg"
    if n == 5:  # no golden: the render of a default-precision build
        default, expected = tmp_path / "d.tower", tmp_path / "d.svg"
        assert run_cli(capsys, "build", "--n", "5", "--schedule", schedule, "--out", str(default))[0] == 0
        assert run_cli(capsys, "render", "--tower", str(default), "--out", str(expected))[0] == 0
    assert svg.read_text() == expected.read_text()


def test_a_57_bit_65537_tower_renders_the_golden_sector(tmp_path, capsys):
    # A sine taken from p1 at 57 bits is off by about 2^-44 (the rounding
    # over sin(2pi/n)), enough to move the sector's sixth decimals.  Seeded
    # from the cosine table, the sector is the golden one at any precision.
    path, svg = tmp_path / "t.tower", tmp_path / "t.svg"
    build = ["build", "--n", "65537", "--precision", "57", "--no-oracle", "--out", str(path)]
    assert run_cli(capsys, *build)[0] == 0
    render = ["render", "--tower", str(path), "--out", str(svg), "--max-vertices", "64"]
    assert run_cli(capsys, *render)[0] == 0
    assert svg.read_text() == (GOLDEN / "sector_65537.svg").read_text()


@pytest.mark.parametrize("n, precision", [(257, 4)])
def test_verify_below_the_header_precision_blames_no_stored_field(
    n, precision, params257, table257, tmp_path, capsys, monkeypatch
):
    # A tower written at 128 bits and checked at a lower header precision:
    # its stored fields are within the coarser tolerance and every sign is
    # still proven.  Tie one node's halves and only that sign fails.
    from ngontower import tower as tower_module
    from ngontower.tower import build_schedule

    path = tmp_path / "t.tower"
    run_cli(capsys, "build", "--n", str(n), "--no-oracle", "--out", str(path))
    lines = path.read_text().splitlines()
    _on_header("precision", precision)(lines)
    path.write_text("\n".join(lines) + "\n")
    code, _ = run_cli(capsys, "verify", "--tower", str(path), "--no-oracle")
    assert code == 0
    node = build_schedule(params257, table257, "pruned").nodes[-1]

    class Tied(CosineCache):
        def part_fixed(self, part):
            return super().part_fixed(node.right if part == node.left else part)

    monkeypatch.setattr(tower_module, "CosineCache", Tied)
    code, err = _stderr_of(capsys, ["verify", "--tower", str(path), "--no-oracle"])
    assert code == 1
    assert err.startswith(f"verification failure: node {node.id}") and err.endswith("raise the precision\n")


def test_an_unproven_sin_radicand_is_named(tower65537, tmp_path, capsys):
    # A tower whose header says 50 bits is checked at 50 bits: every node
    # passes, but sin(2pi/n)^2, about 9.2e-9, is not proven positive.  The
    # message names it as the node path names a discriminant.
    from ngontower.towerfile import dump_tower

    path = tmp_path / "t.tower"
    dump_tower(tower65537, str(path))
    lines = path.read_text().splitlines()
    _on_header("precision", 50)(lines)
    path.write_text("\n".join(lines) + "\n")
    code, err = _stderr_of(capsys, ["verify", "--tower", str(path), "--no-oracle"])
    assert code == 1
    assert err.startswith("verification failure: sin(2pi/n)^2 = 9.19")
    assert err.endswith(" not proven positive\n")


def _value_left_12345(node):
    node["value_left"] = value_json(mp.mpf(12345))


def _sign_margin_1(node):
    node["sign_margin"] = value_json(mp.mpf(1))


def _2_to_the(field, exponent, man=1):
    def change(node):
        node[field]["mpf"] = [0, hex(man), exponent, man.bit_length()]

    return change


def _value_left_beyond_tol(unit=None):
    """A change that stores value_left exactly tol = 2^-64 above its half's
    exact cosine sum, and 2^-unit more unless `unit` is None: n = 17 runs
    at 128 bits, whose sums are ints at scale 2^192."""

    def change(node):
        params = FermatParams.from_n(17)
        cache = CosineCache(params, build_invariant_sets(params, factor=3), 128)
        left = node["left"]
        part = PartRef(left["kind"], left["offset"], left["stride"], left.get("set", 0))
        bits = max(192, unit or 0)
        man = (cache.part_fixed(part) + (1 << 128)) << (bits - 192)
        stored = from_man_exp(man + (0 if unit is None else 1 << (bits - unit)), -bits)
        node["value_left"] = value_json(mp.mp.make_mpf(stored))

    return change


def _commands_on(tower_path, tmp_path):
    return [
        [command, "--tower", str(tower_path), *rest]
        for command, *rest in (
            ["verify"],
            ["verify", "--no-oracle"],
            ["compile", "--target", "arith", "--out", str(tmp_path / "p.arith")],
            ["compile", "--target", "geom", "--out", str(tmp_path / "p.geom")],
            ["render", "--out", str(tmp_path / "p.svg")],
        )
    ]


@pytest.mark.parametrize(
    "change, field",
    [(_value_left_12345, "value_left"), (_sign_margin_1, "sign_margin"),
     (_2_to_the("value_left", 2 * MAX_PRECISION), "value_left"),
     (_2_to_the("value_left", -2 * MAX_PRECISION), "value_left"),
     (_2_to_the("value_left", -MAX_PRECISION, (1 << MAX_PRECISION) - 1), "value_left"),
     (_value_left_beyond_tol(192), "value_left"), (_value_left_beyond_tol(300), "value_left"),
     (_2_to_the("sign_margin", -700), "sign_margin")],
    ids=["value-12345", "margin-1", "value-2^65536", "value-2^-65536", "value-32768-bits",
         "value-tol-and-2^-192", "value-tol-and-2^-300", "margin-2^-700"],
)
def test_tampered_stored_field_fails_every_command(change, field, tmp_path, capsys):
    # Every command checks the stored values and margins against the cosine
    # sums before it trusts or overwrites them.  The comparison is exact: one
    # unit of the sums' scale past the tolerance fails.  A stored exponent
    # outside the ints' bounded shift (2^(+-65536), the widest the loader
    # takes, and 2^-300 and 2^-700, below the 2^-192 of the sums) decides by
    # a difference rounded away from zero at that scale: it costs no
    # 65536-bit integer, and a value past the tolerance by less than the
    # scale's unit still fails.
    tower_path = _tampered_17(tmp_path, capsys, change)
    for argv in _commands_on(tower_path, tmp_path):
        code, err = _stderr_of(capsys, argv)
        assert code == 1
        assert err.startswith(f"verification failure: node 0: stored {field} ")
    assert not any((tmp_path / f"p.{out}").exists() for out in ("arith", "geom", "svg"))


@pytest.mark.parametrize(
    "change",
    [_2_to_the("value_left", -10**12), _2_to_the("value_left", 10**12),
     _2_to_the("value_left", 1 << 40), _2_to_the("value_left", -(1 << 40)),
     _2_to_the("value_left", 1 << 13999), _2_to_the("value_left", -(1 << 13999)),
     _2_to_the("value_left", 2 * MAX_PRECISION + 1), _2_to_the("value_left", -2 * MAX_PRECISION - 1),
     _2_to_the("value_left", -MAX_PRECISION, (1 << MAX_PRECISION) + 1)],
    ids=["value-2^-10^12", "value-2^10^12", "value-2^2^40", "value-2^-2^40", "value-14000-bit-exponent",
         "value-minus-14000-bit-exponent", "value-2^65537", "value-2^-65537", "value-32769-bits"],
)
def test_a_stored_value_no_tower_stores_is_refused_at_load(change, tmp_path, capsys):
    # A tower of at most MAX_PRECISION bits stores no mantissa wider than
    # that and no exponent past +-2 MAX_PRECISION, so the loader refuses
    # one at once, naming its line.  Loaded, a 14,000-bit exponent cost the
    # failure's decimal text 17 s on a 2-vCPU x86-64 host.
    tower_path = _tampered_17(tmp_path, capsys, change)
    for argv in _commands_on(tower_path, tmp_path):
        start = time.perf_counter()
        code, err = _stderr_of(capsys, argv)
        assert (code, time.perf_counter() - start < 1) == (2, True), err
        assert err.startswith(f"error: {tower_path} line 2: ValueError: mpf ")
        assert err.endswith(": past what a tower stores\n")
    assert not any((tmp_path / f"p.{out}").exists() for out in ("arith", "geom", "svg"))


def _mpf_of_value_left(mpf):
    def change(node):
        node["value_left"]["mpf"] = mpf

    return change


@pytest.mark.parametrize(
    "mpf",
    [[0, "0x2", 1 << 13999, 2], [0, "0x3", 5, 1 << 13999], [0, "0x3", 5, -(1 << 13999)],
     [1 << 13999, "0x3", 5, 2], [0, "0x" + "f" * 9000, 5, 36000], [0, "0x" + "g" * 9000, 5, 1],
     [0, "0x" + "e" * 8000, 5, 32000]],
    ids=["even-with-14000-bit-exponent", "14000-bit-bit-count", "negative-bit-count", "14000-bit-sign",
         "36000-bit-mantissa", "not-hex", "even-32000-bit-mantissa"],
)
def test_a_value_refused_at_load_is_one_short_line(mpf, tmp_path, capsys):
    # Each field's size is checked before the normal form, and a message
    # gives a wide field's bit length, never its digits: at one time an even
    # mantissa with a 14,000-bit exponent printed 4,304 characters.
    tower_path = _tampered_17(tmp_path, capsys, _mpf_of_value_left(mpf))
    for argv in _commands_on(tower_path, tmp_path):
        code, err = _stderr_of(capsys, argv)
        assert code == 2 and err.startswith(f"error: {tower_path} line 2: ValueError: "), err[:300]
        assert len(err.replace(str(tower_path), "")) < 200, err[:300]


def test_a_stored_value_exactly_tol_from_its_sum_passes_every_command(tmp_path, capsys):
    tower_path = _tampered_17(tmp_path, capsys, _value_left_beyond_tol())
    for argv in _commands_on(tower_path, tmp_path):
        assert main(argv) == 0
    capsys.readouterr()


def test_render_needs_no_stored_values(tmp_path, capsys):
    # render evaluates the tower itself, so it draws the same polygon from a
    # file whose nodes store no values.
    def drop_values(lines):
        for i in range(1, len(lines)):
            node = json.loads(lines[i])
            node["value_left"] = node["value_right"] = None
            lines[i] = json.dumps(node)

    tower_path = _edited_17(tmp_path, capsys, drop_values)
    code, _ = run_cli(capsys, "render", "--tower", str(tower_path), "--out", str(tmp_path / "p.svg"))
    assert code == 0
    assert (tmp_path / "p.svg").read_text() == (GOLDEN / "polygon_17.svg").read_text()


def _square_term_set_0(node):
    node["product"]["squares"][0][2]["set"] = 0


def _left_kind_h(node):
    node["left"]["kind"] = "H"


def _left_offset_float(node):
    node["left"]["offset"] = 1.0


def _splits_offset_true(node):
    node["splits"]["offset"] = True  # JSON true, which equals 1


def _linear_denominator_true(node):
    node["product"]["linear"][1][1] = True


def _id_true(node):
    node["id"] = True


def _sum_source_true(node):
    node["sum_source"] = True


def _square_offset_float_repeated(node):
    # G1(1,2) is node 1's left half and node 2's split: a loader that kept
    # one part per distinct raw JSON value would find it under 1.0 == 1.
    node["product"]["squares"][0][2]["offset"] = 1.0


def _constant_quarter(node):
    node["product"]["constant"] = [1, 4]


def _linear_quarter(node):
    node["product"]["linear"][0][:2] = [1, 4]


def _square_quarter(node):
    node["product"]["squares"][0][:2] = [1, 4]


def _linear_part_twice(node):
    # Two more terms on the first linear part that cancel: the identity holds.
    num, den, part = node["product"]["linear"][0]
    node["product"]["linear"] += [[num, den, part], [-num, den, part]]


def _square_part_twice(node):
    num, den, part = node["product"]["squares"][0]
    node["product"]["squares"] += [[num, den, part], [-num, den, part]]


def _sum_source_99(node):
    node["sum_source"] = 99


def _id_7(node):
    node["id"] = 7


def _step_40(node):
    node["step"] = 40


def _halves_swapped(node):
    node["left"], node["right"] = node["right"], node["left"]


def _linear_term_unproduced(node):
    # G2(1,2) is a part of the table, but no node of the pruned tower makes it.
    node["product"]["linear"][0][2] = {"kind": "G", "offset": 1, "stride": 2, "set": 2}


def _swap_nodes_1_and_2(lines):
    lines[2], lines[3] = lines[3], lines[2]


def _delete_last_node(lines):
    del lines[-1]


def _append_last_node_as_7(lines):
    node = json.loads(lines[-1])
    node["id"] = 7
    lines.append(json.dumps(node))


def _on_full_17(edit):
    """A line edit that applies `edit` to the lines of a full n = 17 tower
    (nodes 0..6) in place of the pruned one."""

    def full_edit(lines):
        lines[:] = (GOLDEN / "tower_17_full.tower").read_text().splitlines()
        edit(lines)

    return full_edit


def _on_header(key, value):
    """A line edit that sets `key` of the header to `value`."""

    def edit(lines):
        header = json.loads(lines[0])
        header[key] = value
        lines[0] = json.dumps(header)

    return edit


def _nested(index):
    """A line edit that replaces line `index` + 1 with 10,000 nested arrays,
    deeper than the JSON parser recurses."""

    def edit(lines):
        lines[index] = "[" * 10_000

    return edit


def _linear_10_30(node):
    node["product"]["linear"][0][0] = 10**30


def _sign_margin_null(node):
    node["sign_margin"] = None


def _sign_margin_exponent_x(node):
    node["sign_margin"]["mpf"][2] = "x"


def _left_is_larger_yes(node):
    node["left_is_larger"] = "yes"


def _value_right_null(node):
    node["value_right"] = None


def _value_left_sign_2(node):
    node["value_left"]["mpf"][0] = 2


def _value_left_mantissa_decimal(node):
    node["value_left"]["mpf"][1] = str(int(node["value_left"]["mpf"][1], 16))


def _value_left_bit_count_off(node):
    node["value_left"]["mpf"][3] += 1


@pytest.mark.parametrize(
    "edit, bad_line",
    [
        pytest.param(_on_node(_square_term_set_0, 2), 4, id="square-set-0"),
        pytest.param(_on_node(_left_kind_h, 2), 4, id="left-kind-H"),
        pytest.param(_on_node(_left_offset_float, 2), 4, id="left-offset-float"),
        pytest.param(_on_node(_splits_offset_true, 0), 2, id="splits-offset-true"),
        pytest.param(_on_node(_linear_denominator_true, 1), 3, id="linear-denominator-true"),
        pytest.param(_on_node(_id_true, 1), 3, id="id-true"),
        pytest.param(_on_node(_sum_source_true, 2), 4, id="sum-source-true"),
        pytest.param(_on_node(_square_offset_float_repeated, 2), 4, id="square-offset-float-repeated"),
        pytest.param(_on_node(_constant_quarter, 2), 4, id="constant-quarter"),
        pytest.param(_on_node(_linear_quarter, 2), 4, id="linear-quarter"),
        pytest.param(_on_node(_square_quarter, 2), 4, id="square-quarter"),
        pytest.param(_on_node(_linear_part_twice, 2), 4, id="linear-part-twice"),
        pytest.param(_on_node(_square_part_twice, 2), 4, id="square-part-twice"),
        pytest.param(_on_node(_sum_source_99, 2), 4, id="sum-source-99"),
        pytest.param(_on_node(_id_7, 2), 4, id="id-7"),
        pytest.param(_on_node(_step_40, 2), 4, id="step-40"),
        pytest.param(_on_node(_halves_swapped, 2), 4, id="halves-swapped"),
        pytest.param(_on_node(_linear_term_unproduced, 2), 4, id="linear-term-unproduced"),
        # Node 2 now comes first, on line 3, before the node that produces its split.
        pytest.param(_swap_nodes_1_and_2, 3, id="nodes-1-2-swapped"),
        # The file now ends on line 3 before any node produces p1.
        pytest.param(_delete_last_node, 3, id="last-node-deleted"),
        pytest.param(_on_header("precision", "abc"), 1, id="header-precision-abc"),
        pytest.param(_on_header("precision", -5), 1, id="header-precision-negative"),
        pytest.param(_on_header("precision", 10**7), 1, id="header-precision-over-cap"),
        pytest.param(_on_header("schedule", "bogus"), 1, id="header-schedule-bogus"),
        pytest.param(_nested(0), 1, id="header-nested-10000"),
        pytest.param(_nested(2), 3, id="node-nested-10000"),
        pytest.param(_on_node(_linear_10_30, 2), 4, id="linear-10^30"),
        pytest.param(_on_node(_sign_margin_null, 1), 3, id="sign-margin-null"),
        pytest.param(_on_node(_sign_margin_exponent_x, 1), 3, id="sign-margin-exponent-x"),
        pytest.param(_on_node(_left_is_larger_yes, 1), 3, id="left-is-larger-yes"),
        pytest.param(_on_node(_value_right_null, 1), 3, id="value-right-null"),
        pytest.param(_on_node(_value_left_sign_2, 1), 3, id="value-left-sign-2"),
        pytest.param(_on_node(_value_left_mantissa_decimal, 1), 3, id="value-left-mantissa-decimal"),
        pytest.param(_on_node(_value_left_bit_count_off, 1), 3, id="value-left-bit-count-off"),
        # A second split of the part node 6 splits, on line 9.
        pytest.param(_on_full_17(_append_last_node_as_7), 9, id="full-node-6-twice"),
        # p1 needs only nodes 0..2; the schedule is checked after the last line.
        pytest.param(_on_full_17(_on_header("schedule", "pruned")), 8, id="full-says-pruned"),
        pytest.param(_on_header("schedule", "full"), 4, id="pruned-says-full"),
    ],
)
def test_part_outside_table_is_a_usage_error(edit, bad_line, tmp_path, capsys):
    # The loader refuses a malformed line before any command reads it: a
    # header field out of range, a part outside the table, a coefficient
    # denominator other than 1 or 2 or a coefficient of 2^30 or more, a part
    # named twice among a product's linear terms or its squares, a malformed
    # sign or value field, a line nested too deeply to parse, a node out of
    # place in the schedule's DAG, or nodes that are not the header's schedule.  Run in-process: an
    # exception escaping `main` fails the test.
    tower_path = _edited_17(tmp_path, capsys, edit)
    for argv in (
        ["verify", "--tower", str(tower_path)],
        ["compile", "--tower", str(tower_path), "--target", "geom", "--out", str(tmp_path / "p.geom")],
        ["render", "--tower", str(tower_path), "--out", str(tmp_path / "p.svg")],
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{tower_path} line {bad_line}:" in err
    assert not (tmp_path / "p.geom").exists() and not (tmp_path / "p.svg").exists()


def _set(*path_and_value):
    """A node change that sets the field at `path` to `value`."""
    *path, key, value = path_and_value

    def change(node):
        for step in path:
            node = node[step]
        node[key] = value

    return change


_WIDE = 1 << 13999  # 4,214 digits, within the 4,300 that `json.loads` reads
_LONG = "y" * 5000


@pytest.mark.parametrize(
    "edit, bad_line",
    [(_on_node(_set("id", _WIDE), 0), 2), (_on_node(_set("step", _WIDE), 0), 2),
     (_on_node(_set("sum_source", _WIDE), 1), 3), (_on_node(_set("left_is_larger", _LONG), 0), 2),
     (_on_header("precision", _WIDE), 1), (_on_header("version", _WIDE), 1),
     (_on_header("n", _LONG), 1), (_on_header("n", _WIDE), 1), (_on_header("factor", _WIDE), 1),
     (_on_header("schedule", _LONG), 1),
     (_on_node(_set("product", "constant", [_WIDE, 3]), 0), 2),
     (_on_node(_set("product", "constant", [3, _WIDE]), 0), 2),
     (_on_node(_set("product", "constant", [_WIDE, 1]), 0), 2),
     (_on_node(_set("product", "constant", [_LONG, 1]), 0), 2),
     (_on_node(_set("splits", "offset", _LONG), 0), 2), (_on_node(_set("splits", "offset", _WIDE), 0), 2),
     (_on_node(_set("left", "kind", _LONG), 0), 2)],
    ids=["id", "step", "sum-source", "left-is-larger", "precision", "version", "n-string", "n-wide",
         "factor", "schedule", "coefficient-over-3", "denominator", "coefficient-over-1",
         "coefficient-string", "part-offset-string", "part-offset-wide", "part-kind"],
)
def test_a_wide_stored_field_is_quoted_short(edit, bad_line, tmp_path, capsys):
    # Each stored field a load error quotes is cut to 40 characters, and a
    # message from the modules that check n, the factor and the parts to
    # 150: at one time each of these printed the field whole, in 4,270 to
    # 5,136 characters.
    tower_path = _edited_17(tmp_path, capsys, edit)
    for argv in _commands_on(tower_path, tmp_path):
        code, err = _stderr_of(capsys, argv)
        assert code == 2 and err.startswith(f"error: {tower_path} line {bad_line}: "), err[:300]
        assert len(err.replace(str(tower_path), "")) < 200, err[:300]


def test_split_of_a_single_pair_is_refused_by_its_label(tmp_path, capsys):
    # A fourth line that splits p1 = G1(1,4), which node 2 produced.
    def split_p1(lines):
        node = json.loads(lines[-1])
        node["id"] = 3
        node["splits"] = node["left"]
        lines.append(json.dumps(node))

    tower_path = _edited_17(tmp_path, capsys, split_p1)
    code, err = _stderr_of(capsys, ["verify", "--tower", str(tower_path)])
    assert code == 2
    assert err == f"error: {tower_path} line 5: ValueError: G1(1,4) is a single pair\n"


def test_repeated_part_in_a_65537_tower_is_refused(tower65537, tmp_path, capsys):
    # 2,000 cancelling terms +-F(1,2) in node 1: a valid identity, but each
    # command would plan shared sums over all O(T^2) pairs of its terms.
    from ngontower.towerfile import dump_tower

    path = tmp_path / "t.tower"
    dump_tower(tower65537, str(path))
    lines = path.read_text().splitlines()
    node = json.loads(lines[2])
    node["product"]["linear"] += [[c, 1, {"kind": "F", "offset": 1, "stride": 2}] for c in (1, -1) * 1000]
    lines[2] = json.dumps(node)
    path.write_text("\n".join(lines) + "\n")
    for argv in (
        ["verify", "--tower", str(path)],
        ["compile", "--tower", str(path), "--target", "arith", "--out", str(tmp_path / "p.arith")],
        ["render", "--tower", str(path), "--out", str(tmp_path / "p.svg")],
    ):
        code, err = _stderr_of(capsys, argv)
        assert code == 2
        assert err.startswith(f"error: {path} line 3: ValueError: F(1,2) is named twice among the linear")


def test_header_precision_null_reads_as_128(tmp_path, capsys):
    tower_path = _edited_17(tmp_path, capsys, _on_header("precision", None))
    code, _ = run_cli(capsys, "render", "--tower", str(tower_path), "--out", str(tmp_path / "p.svg"))
    assert code == 0
    assert (tmp_path / "p.svg").read_text() == (GOLDEN / "polygon_17.svg").read_text()


def test_header_precision_null_reads_as_the_default(tower65537, tmp_path):
    from ngontower.tower import default_precision
    from ngontower.towerfile import dump_tower, load_tower

    path = tmp_path / "t.tower"
    dump_tower(tower65537, str(path))
    lines = path.read_text().splitlines()
    _on_header("precision", None)(lines)
    path.write_text("\n".join(lines) + "\n")
    assert load_tower(str(path)).precision == default_precision(65537) == 512


def test_verify_accepts_tower_from_direct_cosine_table(capsys):
    # Dumped by the code that computed every pair cosine with mp.cos; its
    # sign margins differ from a fresh build in their last bits only.
    code, out = run_cli(capsys, "verify", "--tower", str(GOLDEN / "tower_17_full.tower"))
    assert code == 0
    assert out.startswith("tower for n=17 verified: 7 nodes")
