"""The program runs without numpy or mpmath, which only the tests use, and
checks a stored tower without the code that derives one.

Each command runs once in this process and once in a child interpreter in
which `import numpy` fails (`sys.modules["numpy"] = None` before `ngontower`
is imported); both must exit 0 and write the same bytes, and the child must
end without `argparse`, `gettext` or `locale` imported, whose first use cost
each command more than the n = 3 work.  Every command runs the same way with
`import mpmath` failing, a verify that fails included.  The commands that
read a stored tower run the same way with the derivation's modules blocked
instead: the checker shares no code with what it checks.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ngontower.cli import main
from ngontower.tower import build_tower
from ngontower.towerfile import dump_tower

SRC = Path(__file__).resolve().parents[1] / "src"


def _commands(n: int) -> list[list[str]]:
    return [
        ["build", "--n", str(n), "--out", "t.tower"],
        ["verify", "--tower", "t.tower"],
        ["compile", "--tower", "t.tower", "--target", "arith", "--out", "p.arith"],
        ["compile", "--tower", "t.tower", "--target", "geom", "--out", "p.geom"],
        ["render", "--tower", "t.tower", "--out", "p.svg"],
        ["tables", "--n", str(n), "--kind", "sets"],
    ]


def _child(script: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter that imports this checkout."""
    return subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def _written(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("n", [17, 257])
def test_every_command_runs_without_numpy(n, tmp_path, monkeypatch, capsys):
    here, there = tmp_path / "here", tmp_path / "there"
    here.mkdir()
    there.mkdir()
    monkeypatch.chdir(here)
    codes = [main(argv) for argv in _commands(n)]
    out = capsys.readouterr().out
    assert codes == [0] * len(codes)

    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from ngontower.cli import main\n"
        f"print(*[main(argv) for argv in {_commands(n)!r}], file=sys.stderr)\n"
        "print(*[m for m in ('argparse', 'gettext', 'locale') if m in sys.modules], file=sys.stderr)\n"
    )
    result = _child(script, there)
    assert result.stderr.split("\n") == [" ".join(["0"] * len(codes)), "", ""], result.stderr
    assert result.stdout == out
    assert _written(there) == _written(here)
    assert set(_written(here)) == {"t.tower", "p.arith", "p.geom", "p.svg"}


# Beside `_commands`: the tables that read the cosine sums, the one
# command that reads no tower, and a verify of a tower with one stored value
# changed, which fails and prints stored and computed numbers as text.
def _every_command(n: int) -> list[list[str]]:
    return _commands(n) + [
        ["tables", "--n", str(n), "--kind", "signs"],
        ["constructible", "255"],
        ["verify", "--tower", "bad.tower"],
    ]


@pytest.mark.parametrize("n", [17, 257])
def test_every_command_runs_without_mpmath(n, tmp_path, monkeypatch, capsys):
    here, there = tmp_path / "here", tmp_path / "there"
    here.mkdir()
    there.mkdir()
    tower = build_tower(n)
    tower.nodes[1].value_left = (0, 12345, -3, 14)
    dump_tower(tower, str(here / "bad.tower"))
    (there / "bad.tower").write_bytes((here / "bad.tower").read_bytes())
    monkeypatch.chdir(here)
    codes = [main(argv) for argv in _every_command(n)]
    out, err = capsys.readouterr()
    assert codes == [0] * (len(codes) - 1) + [1]
    ref = {17: "2.049481177735315599625534", 257: "9.246073971189892058744173"}[n]
    assert err == f"verification failure: node 1: stored value_left 1543.125 but cosine sums give {ref}\n"

    script = (
        "import json, sys\n"
        "sys.modules['mpmath'] = None\n"
        "from ngontower.cli import main\n"
        f"codes = [main(argv) for argv in {_every_command(n)!r}]\n"
        "print(json.dumps(codes), file=sys.stderr)\n"
    )
    result = _child(script, there)
    *child_err, last, empty = result.stderr.split("\n")
    assert (json.loads(last), empty) == (codes, ""), result.stderr
    assert "\n".join(child_err) + "\n" == err
    assert result.stdout == out
    assert _written(there) == _written(here)
    assert set(_written(here)) == {"bad.tower", "t.tower", "p.arith", "p.geom", "p.svg"}


def test_importing_every_module_leaves_mpmath_unimported(tmp_path):
    script = (
        "import importlib, json, pkgutil, sys\n"
        "import ngontower\n"
        "for info in pkgutil.iter_modules(ngontower.__path__):\n"
        "    importlib.import_module('ngontower.' + info.name)\n"
        "names = sorted(m for m in sys.modules if m.startswith('ngontower.'))\n"
        "print(json.dumps([len(names), 'mpmath' in sys.modules]), file=sys.stderr)\n"
    )
    result = _child(script, tmp_path)
    count, imported = json.loads(result.stderr.splitlines()[-1])
    assert (count, imported) == (len(list((SRC / "ngontower").glob("*.py"))) - 1, False), result.stderr


def test_a_build_leaves_numpy_unimported(tmp_path):
    script = (
        "import json, sys\n"
        "from ngontower.cli import main\n"
        "code = main(['build', '--n', '257', '--out', 't.tower'])\n"
        "print(json.dumps([code, 'numpy' in sys.modules]), file=sys.stderr)\n"
    )
    result = _child(script, tmp_path)
    assert json.loads(result.stderr.splitlines()[-1]) == [0, False], result.stderr


# What derives a tower's products and writes its build report.
DERIVATION = ("period_algebra", "splitting", "report", "reference_tables")
STORED_COMMANDS = [
    ["verify", "--tower", "t.tower"],
    ["compile", "--tower", "t.tower", "--target", "arith", "--out", "p.arith"],
    ["compile", "--tower", "t.tower", "--target", "geom", "--out", "p.geom"],
    ["render", "--tower", "t.tower", "--max-vertices", "64", "--out", "p.svg"],
]


@pytest.mark.parametrize("n", [17, 257, 65537])
def test_stored_towers_are_checked_without_the_derivation(n, request, tmp_path, monkeypatch, capsys):
    here, there = tmp_path / "here", tmp_path / "there"
    here.mkdir()
    there.mkdir()
    tower = request.getfixturevalue("tower65537") if n == 65537 else build_tower(n)
    dump_tower(tower, str(here / "t.tower"))
    (there / "t.tower").write_bytes((here / "t.tower").read_bytes())
    monkeypatch.chdir(here)
    codes = [main(argv) for argv in STORED_COMMANDS]
    out = capsys.readouterr().out
    assert codes == [0] * len(codes)
    assert "oracle-checked 0 " not in out

    script = (
        "import sys\n"
        f"for name in {DERIVATION!r}:\n"
        "    sys.modules['ngontower.' + name] = None\n"
        "from ngontower.cli import main\n"
        f"print(*[main(argv) for argv in {STORED_COMMANDS!r}], file=sys.stderr)\n"
    )
    result = _child(script, there)
    assert result.stderr.split() == ["0"] * len(codes), result.stderr
    assert result.stdout == out
    assert _written(there) == _written(here)
    assert set(_written(here)) == {"t.tower", "p.arith", "p.geom", "p.svg"}


# The stored commands that read no pair of the invariant sets' table: the
# cosine sums need only each set's start, so the table is never walked.
# `verify` with the oracle places its parts by their pairs, so it walks it.
UNWALKED_COMMANDS = [["verify", "--tower", "t.tower", "--no-oracle"], *STORED_COMMANDS[1:]]


@pytest.mark.parametrize("fixture", ["tower257_full", "tower65537"])
def test_stored_towers_are_checked_without_the_pair_table(fixture, request, tmp_path, monkeypatch, capsys):
    from ngontower import invariant_sets

    tower = request.getfixturevalue(fixture)
    dump_tower(tower, str(tmp_path / "t.tower"))
    monkeypatch.chdir(tmp_path)
    walk, walked = invariant_sets._walk, []

    def counted(table):
        walked.append(table.params.n)
        return walk(table)

    monkeypatch.setattr(invariant_sets, "_walk", counted)
    for argv in UNWALKED_COMMANDS:
        assert (main(argv), walked) == (0, []), argv
    assert (main(STORED_COMMANDS[0]), walked) == (0, [tower.params.n])
    assert f"oracle-checked {len(tower.nodes)} " in capsys.readouterr().out
