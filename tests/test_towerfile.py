"""`dump_tower` writes its lines directly, encoding each distinct part once:
its bytes must be those of the `json.dumps` encoder it replaced, for signed
and unsigned towers alike.  `load_tower` reads each distinct term once, yet
checks the type of every occurrence."""

import json
from pathlib import Path

import pytest

from ngontower import towerfile
from ngontower.cli import main
from ngontower.invariant_sets import build_invariant_sets
from ngontower.residues import FermatParams
from ngontower.tower import build_schedule, build_tower
from ngontower.towerfile import dump_tower, load_tower

from towerfile_reference import reference_dump

GOLDEN = Path(__file__).parent / "golden"


def _dumped(tower, tmp_path) -> str:
    path = tmp_path / "t.tower"
    dump_tower(tower, str(path))
    return path.read_text()


def test_dump_of_the_loaded_golden_is_the_golden(tmp_path):
    golden = GOLDEN / "tower_17_full.tower"
    assert _dumped(load_tower(str(golden)), tmp_path).encode() == golden.read_bytes()


def test_header_only_tower_matches_the_reference(tmp_path):
    tower = build_tower(3)
    assert not tower.nodes
    assert _dumped(tower, tmp_path) == reference_dump(tower)


@pytest.mark.parametrize("kind", ["full", "pruned"])
def test_unsigned_tower_matches_the_reference(kind, tmp_path):
    # Schedule only: every sign, margin and value is null.
    params = FermatParams.from_n(17)
    tower = build_schedule(params, build_invariant_sets(params), kind)
    assert all(node.left_is_larger is None and node.value_left is None for node in tower.nodes)
    text = _dumped(tower, tmp_path)
    assert '"sign_margin": null' in text
    assert text == reference_dump(tower)


@pytest.mark.parametrize("fixture", ["tower257_full", "tower65537"])
def test_signed_tower_matches_the_reference(fixture, request, tmp_path):
    tower = request.getfixturevalue(fixture)
    assert _dumped(tower, tmp_path) == reference_dump(tower)


def test_loaded_zero_negative_and_null_fields_match_the_reference(tmp_path):
    # The writer prints values as text itself: a zero, a negative value, a
    # false sign and null fields read from a file must come out as
    # `json.dumps` writes them.
    lines = (GOLDEN / "tower_17_full.tower").read_text().splitlines()
    zero, minus = {"dec": "0", "mpf": [0, "0x0", 0, 0]}, {"dec": "-", "mpf": [1, "0x3", -700, 2]}
    for i, fields in enumerate([
        {"sign_margin": zero, "value_left": zero, "value_right": minus},
        {"left_is_larger": False, "value_left": minus, "value_right": zero},
        {"left_is_larger": None, "sign_margin": None, "value_left": None, "value_right": None},
    ], start=1):
        lines[i] = json.dumps(json.loads(lines[i]) | fields)
    path = tmp_path / "edited.tower"
    path.write_text("\n".join(lines) + "\n")
    tower = load_tower(str(path))
    assert tower.nodes[0].value_left == (0, 0, 0, 0) and tower.nodes[0].value_right == (1, 3, -700, 2)
    assert tower.nodes[1].left_is_larger is False and tower.nodes[2].sign_margin is None
    assert _dumped(tower, tmp_path) == reference_dump(tower)


def _raw_terms(lines):
    """(line index, group, position, raw fields) of every product term."""
    for i, line in enumerate(lines[1:], start=1):
        product = json.loads(line)["product"]
        for group in ("linear", "squares"):
            for j, (num, den, p) in enumerate(product[group]):
                yield i, group, j, (num, den, p["kind"], p["offset"], p["stride"], p.get("set", 0))


@pytest.mark.parametrize("value", [True, 1.0], ids=["true", "1.0"])
@pytest.mark.parametrize("field", ["den", "offset", "stride", "set"])
def test_a_later_occurrence_of_a_term_is_type_checked(field, value, tower257_full, tmp_path, capsys):
    # The full 257 tower names -G1 as [-1, 1, G1] in several nodes: its
    # denominator, offset, stride and set all equal 1, and so do true and
    # 1.0.  The first occurrence is read and kept; a later one holding true
    # or 1.0 must not be taken for it.
    path = tmp_path / "t.tower"
    dump_tower(tower257_full, str(path))
    lines = path.read_text().splitlines()
    seen = {}
    for i, group, j, raw in _raw_terms(lines):
        if raw[1] == raw[3] == raw[4] == raw[5] == 1 and raw in seen and seen[raw] < i:
            break
        seen.setdefault(raw, i)
    else:
        raise AssertionError("no term with fields of 1 is named in two nodes")
    node = json.loads(lines[i])
    term = node["product"][group][j]
    if field == "den":
        term[1] = value
    else:
        term[2][field] = value
    lines[i] = json.dumps(node)
    path.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--tower", str(path), "--no-oracle"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {path} line {i + 1}: TypeError: ") and err.count("\n") == 1


def test_each_distinct_term_and_part_is_read_once(tower65537, tmp_path, monkeypatch):
    # The pruned 65537 tower names 34,293 terms, 3,837 of them distinct.
    path = tmp_path / "t.tower"
    dump_tower(tower65537, str(path))
    lines = path.read_text().splitlines()
    terms = [raw for *_, raw in _raw_terms(lines)]
    parts = {raw[2:] for raw in terms}
    for line in lines[1:]:
        for key in ("splits", "left", "right"):
            p = json.loads(line)[key]
            parts.add((p["kind"], p["offset"], p["stride"], p.get("set", 0)))
    calls = {"_coeff_from_json": 0, "check_part": 0}

    def counted(name):
        original = getattr(towerfile, name)

        def count(*args):
            calls[name] += 1
            return original(*args)

        return count

    for name in calls:
        monkeypatch.setattr(towerfile, name, counted(name))
    loaded = load_tower(str(path))
    assert len(terms) > 5 * len(set(terms))
    # One coefficient read per distinct term, and one per node for its constant.
    assert calls["_coeff_from_json"] <= len(set(terms)) + len(loaded.nodes)
    assert calls["check_part"] <= len(parts)
