"""Fuzz the tower-file boundary: whatever a file holds, `verify`, `compile`
and `render` end in exit code 0, 1 or 2 with no exception, in bounded time.

Each example mutates an n = 17 or 257 pruned tower file once: it truncates
it at a byte, flips a byte, deletes, duplicates or swaps lines, retypes one
JSON value, or re-points one part.  A failing example is reported as
generated, without shrinking: it is one edit already, and the shrinker could
wander into an edit (a huge precision, say) that runs for minutes when the
code under test lacks a bound.
"""

import contextlib
import io
import json
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from ngontower.cli import main
from ngontower.tower import build_tower
from ngontower.towerfile import dump_tower

_TOWERS: dict[int, bytes] = {}


def _tower_bytes(n: int) -> bytes:
    if n not in _TOWERS:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.tower"
            dump_tower(build_tower(n), str(path))
            _TOWERS[n] = path.read_bytes()
    return _TOWERS[n]


def _paths(value, prefix=()):
    """Every path of keys and indices into a JSON value, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, prefix + (i,))


def _replace(value, path, new):
    if not path:
        return new
    value[path[0]] = _replace(value[path[0]], path[1:], new)
    return value


@st.composite
def _truncated(draw, data):
    return data[: draw(st.integers(0, len(data) - 1))]


@st.composite
def _flipped(draw, data):
    i = draw(st.integers(0, len(data) - 1))
    return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1 :]


@st.composite
def _lines_edited(draw, data):
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(("delete", "duplicate", "swap")))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(j, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return b"\n".join(lines)


_RETYPED = st.sampled_from((None, "x", 0.5, 10**30, -(10**30)))


@st.composite
def _retyped(draw, data):
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 2))  # the last line is empty
    obj = json.loads(lines[i])
    path = draw(st.sampled_from(list(_paths(obj))))
    lines[i] = json.dumps(_replace(obj, path, draw(_RETYPED))).encode()
    return b"\n".join(lines)


def _get(value, path):
    for key in path:
        value = value[key]
    return value


def _part_paths(node):
    """The paths to every part object (a dict with a "kind") of a node."""
    return [p for p in _paths(node) if isinstance(_get(node, p), dict) and "kind" in _get(node, p)]


_PART = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(("F", "G")),
        "offset": st.integers(1, 16),
        "stride": st.sampled_from((1, 2, 4, 8, 16)),
    },
    optional={"set": st.integers(1, 16)},
)


@st.composite
def _repointed(draw, data):
    lines = data.split(b"\n")
    nodes = [json.loads(line) for line in lines[1:-1]]
    every_part = [_get(node, p) for node in nodes for p in _part_paths(node)]
    i = draw(st.integers(0, len(nodes) - 1))
    new = draw(st.one_of(st.sampled_from(every_part), _PART))
    path = draw(st.sampled_from(_part_paths(nodes[i])))
    lines[1 + i] = json.dumps(_replace(nodes[i], path, new)).encode()
    return b"\n".join(lines)


@st.composite
def _mutated_tower(draw):
    data = _tower_bytes(draw(st.sampled_from((17, 257))))
    mutate = draw(st.sampled_from((_truncated, _flipped, _lines_edited, _retyped, _repointed)))
    return draw(mutate(data))


@settings(
    derandomize=True,
    database=None,
    max_examples=400,
    deadline=timedelta(seconds=5),
    phases=(Phase.explicit, Phase.generate),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_mutated_tower())
def test_mutated_tower_file_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        tower = Path(tmp) / "t.tower"
        tower.write_bytes(data)
        for argv in (
            ["verify", "--tower", str(tower)],
            ["compile", "--tower", str(tower), "--target", "geom", "--out", f"{tmp}/p.geom"],
            ["render", "--tower", str(tower), "--out", f"{tmp}/p.svg"],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2)
            assert code == 0 or err.getvalue().count("\n") == 1
