"""`dump_tower` writes its lines directly, encoding each distinct part once:
its bytes must be those of the `json.dumps` encoder it replaced, for signed
and unsigned towers alike."""

from pathlib import Path

import pytest

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
