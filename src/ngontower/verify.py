"""The one check pipeline, `verify_tower`, and its exact oracle.

`verify_tower` runs the checks that back a tower, in this order: the exact
oracle on every product expression (optional), then `tower.resolve_signs`,
which decides each sign from direct cosine sums or checks a stored one, then
`tower.evaluate_tower`, which runs the tower's arithmetic program (the one
`compile` writes), cross-checks every node value and p1 against the same
sums and writes the tower's report.  Every command that reads a tower runs
it: `build`, `verify`, `render`, and `compile`, which writes the program
the pipeline ran.

The oracle check expands each node's two sides in the pair basis and
multiplies them brute-force; the result must equal the product expression
exactly as integers, both sides doubled (an expression's coefficients count
halves).  Every failed check raises a `VerificationError` naming its node,
and the first one ends the pass.
"""

import numpy as np

from .errors import VerificationError
from .invariant_sets import InvariantSetTable
from .oracle import PeriodVector, pv_from_pairs, pv_mul
from .splitting import LinearCombo, PartRef, part_pairs
from .tower import Tower, evaluate_tower, resolve_signs


class OracleMismatch(VerificationError):
    """A product expression is not exactly equal to the brute-force product."""


def pv_of_part(part: PartRef, table: InvariantSetTable) -> PeriodVector:
    return pv_from_pairs(part_pairs(part, table), table.params)


class _PartPairs(dict):
    """Part -> its pair numbers (`part_pairs`), each part expanded once."""

    def __init__(self, table: InvariantSetTable):
        super().__init__()
        self.table = table

    def __missing__(self, part: PartRef) -> np.ndarray:
        pairs = self[part] = part_pairs(part, self.table)
        return pairs


def combo_as_pv_doubled(
    combo: LinearCombo, table: InvariantSetTable, pairs: _PartPairs | None = None
) -> PeriodVector:
    """2 * combo expanded over the pair basis: its coefficients, which count
    halves, as they stand.

    The linear terms are scattered in one pass over their concatenated pair
    numbers (read from `pairs`, the expansions of a pass, when given),
    accumulating in int64; each square goes through `pv_mul`.
    """
    pairs = _PartPairs(table) if pairs is None else pairs
    terms = [pairs[p] for _, p in combo.linear]
    coeffs = np.asarray([c for c, _ in combo.linear], dtype=np.int64)
    acc = np.zeros(table.params.npairs + 1, dtype=np.int64)
    if terms:
        np.add.at(acc, np.concatenate(terms), np.repeat(coeffs, [len(t) for t in terms]))
    result = PeriodVector(table.params.n, combo.constant, acc)
    for c, p in combo.squares:
        pvp = pv_of_part(p, table)
        result = result + pv_mul(pvp, pvp).scaled(c)
    return result


def _normalize_mod_s(v: PeriodVector) -> PeriodVector:
    """Canonical representative modulo the relation S = -1 (i.e. modulo integer
    multiples of the all-ones vector with constant 1)."""
    t = int(v.coeffs[-1])
    if t == 0:
        return v
    coeffs = v.coeffs.copy()
    coeffs[1:] -= t
    return PeriodVector(v.n, v.constant - t, coeffs)


def oracle_check_node(node, table: InvariantSetTable, pairs: _PartPairs | None = None) -> None:
    lhs = pv_mul(pv_of_part(node.left, table), pv_of_part(node.right, table)).scaled(2)
    rhs = combo_as_pv_doubled(node.product_expr, table, pairs)
    # Expressions may carry the uniform part of the product folded into the
    # constant via S = -1, so compare representatives modulo that relation.
    if _normalize_mod_s(lhs) != _normalize_mod_s(rhs):
        delta = lhs - rhs
        bad = delta.nonzero_pairs()
        raise OracleMismatch(
            f"product of {node.left.label(table)} and {node.right.label(table)} differs "
            f"from its expression at {len(bad)} pairs (constant delta {delta.constant})",
            node.id,
        )


def oracle_check_tower(tower: Tower) -> int:
    """Exact check of every node; returns how many were checked.  Each part
    a product expression names is expanded once for the pass."""
    pairs = _PartPairs(tower.table)
    for node in tower.nodes:
        oracle_check_node(node, tower.table, pairs)
    return len(tower.nodes)


def verify_tower(tower: Tower, precision: int | None = None, oracle: bool = True) -> tuple:
    """The check pipeline; raises the first `VerificationError` it meets.

    Runs the exact oracle on every product expression (when `oracle`), then
    derives the signs from direct cosine sums at `precision` bits (the
    tower's own when None; a stored sign, margin or value that disagrees
    fails), then runs the tower's arithmetic program, cross-checking every
    node value and p1 against those sums.  The tower's report records the
    result.  Returns the program that ran and its instruction values (raw
    mpf tuples).
    """
    checked = oracle_check_tower(tower) if oracle else 0
    resolve_signs(tower, tower.precision if precision is None else precision)
    run = evaluate_tower(tower)
    tower.report.oracle_checked = checked
    return run
