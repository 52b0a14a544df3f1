import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ngontower.cli import main

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


def test_tables_mu_golden(capsys):
    code, out = run_cli(capsys, "tables", "--n", "65537", "--kind", "mu", "--m", "3")
    assert code == 0
    assert out == (GOLDEN / "mu_65537_m3.txt").read_text()


def test_tables_ksets_golden(capsys):
    code, out = run_cli(capsys, "tables", "--n", "65537", "--kind", "ksets", "--m", "6")
    assert code == 0
    assert out == (GOLDEN / "ksets_65537_m6.txt").read_text()
    assert "K(10,64) = 26" in out


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
    "argv",
    [
        ["tables", "--n", "17", "--kind", "mu", "--m", "9"],
        ["tables", "--n", "17", "--kind", "ksets", "--m", "7"],
        ["tables", "--n", "17", "--kind", "product", "--i", "0", "--j", "1"],
        ["tables", "--n", "17", "--kind", "signs", "--precision", "-5"],
        ["build", "--n", "17", "--precision", "-5"],
        ["verify", "--tower", "{tower}", "--precision", "0"],
    ],
    ids=["mu-level", "ksets-level", "product-set", "tables-precision", "build-precision",
         "verify-precision"],
)
def test_argument_out_of_range_is_a_usage_error(argv, tmp_path, capsys):
    if "{tower}" in argv:
        tower_path = str(tmp_path / "t17.tower")
        run_cli(capsys, "build", "--n", "17", "--out", tower_path)
        argv = [tower_path if a == "{tower}" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_build_invalid_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--n", "9"])
    assert exc.value.code == 2


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
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--tower", str(tower_path)])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    assert "4294967297" in capsys.readouterr().err
    result = run_console("verify", "--tower", str(tower_path))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def _tampered_17(tmp_path, capsys, change):
    """An n = 17 tower file whose node 0 was edited by `change`."""
    tower_path = tmp_path / "t17.tower"
    run_cli(capsys, "build", "--n", "17", "--out", str(tower_path))
    lines = tower_path.read_text().splitlines()
    node = json.loads(lines[1])
    change(node)
    lines[1] = json.dumps(node)
    tower_path.write_text("\n".join(lines) + "\n")
    return tower_path


def _flip_sign(node):
    node["left_is_larger"] = not node["left_is_larger"]


def _constant_40(node):
    node["product"]["constant"] = [40, 1]


def test_verify_detects_flipped_stored_sign(tmp_path, capsys):
    tower_path = _tampered_17(tmp_path, capsys, _flip_sign)
    result = run_console("verify", "--tower", str(tower_path))
    assert result.returncode == 1
    assert result.stderr.startswith("FAIL: node 0: ")


@pytest.mark.parametrize("change", [_flip_sign, _constant_40], ids=["flipped-sign", "constant-40"])
def test_compile_and_render_fail_cleanly_on_tampered_tower(change, tmp_path, capsys):
    tower_path = _tampered_17(tmp_path, capsys, change)
    for argv in (
        ["compile", "--tower", str(tower_path), "--target", "arith", "--out", str(tmp_path / "p.arith")],
        ["compile", "--tower", str(tower_path), "--target", "geom", "--out", str(tmp_path / "p.geom")],
        ["render", "--tower", str(tower_path), "--out", str(tmp_path / "p.svg")],
    ):
        result = run_console(*argv)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("verification failure: ")
        assert result.stderr.count("\n") == 1
        assert not Path(argv[-1]).exists()


def test_unsigned_tower_is_a_usage_error(tmp_path, capsys):
    tower_path = _tampered_17(tmp_path, capsys, lambda node: node.update(left_is_larger=None))
    for argv in (
        ["compile", "--tower", str(tower_path), "--target", "arith", "--out", str(tmp_path / "p.arith")],
        ["render", "--tower", str(tower_path), "--out", str(tmp_path / "p.svg")],
    ):
        result = run_console(*argv)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ") and "unresolved signs" in result.stderr
