import pytest

from ngontower.errors import VerificationError
from ngontower.invariant_sets import LinearCombo
from ngontower.tower import build_tower
from ngontower.verify import (
    OracleMismatch,
    oracle_check_node,
    oracle_check_tower,
    verify_tower,
)


@pytest.mark.parametrize("n,kind", [(5, "pruned"), (17, "full"), (257, "pruned")])
def test_oracle_checks_pass(n, kind):
    tower = build_tower(n, kind=kind)
    assert oracle_check_tower(tower) == len(tower.nodes)


def test_oracle_checks_full_257(tower257_full):
    assert oracle_check_tower(tower257_full) == 127


def _perturb(node, delta=2):
    # delta counts halves: 2 moves the coefficient by one whole unit.
    lin = list(node.product_expr.linear)
    c, p = lin[0]
    lin[0] = (c + delta, p)
    node.product_expr = LinearCombo(node.product_expr.constant, tuple(lin), node.product_expr.squares)


def test_perturbed_coefficient_detected():
    tower = build_tower(257)
    _perturb(tower.nodes[4])
    with pytest.raises(OracleMismatch):
        oracle_check_node(tower.nodes[4], tower.table)
    with pytest.raises(OracleMismatch, match="^node 4: "):
        verify_tower(tower)


def test_perturbed_constant_detected_numerically():
    # A wrong constant shifts the product value; the cosine cross-check in the
    # numeric pass has to catch it even with the oracle disabled.
    tower = build_tower(257)
    node = tower.nodes[2]
    node.product_expr = LinearCombo(
        node.product_expr.constant + 2, node.product_expr.linear, node.product_expr.squares
    )
    with pytest.raises(VerificationError):
        verify_tower(tower, oracle=False)


def test_flipped_sign_detected():
    tower = build_tower(257)
    tower.nodes[6].left_is_larger = not tower.nodes[6].left_is_larger
    with pytest.raises(VerificationError):
        verify_tower(tower, oracle=False)


def test_flipped_sign_detected_after_reload(tmp_path):
    # A loaded tower's stored sign is checked against the cosine sums, not
    # replaced by them.
    from ngontower.towerfile import dump_tower, load_tower

    tower = build_tower(257)
    tower.nodes[6].left_is_larger = not tower.nodes[6].left_is_larger
    path = tmp_path / "t.tower"
    dump_tower(tower, str(path))
    with pytest.raises(VerificationError, match="^node 6: "):
        verify_tower(load_tower(str(path)), oracle=False)
