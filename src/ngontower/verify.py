"""The one check pipeline, `verify_tower`, and its exact oracle.

`verify_tower` runs the checks that back a tower, all at the precision the
tower carries, in this order: the exact oracle on every product expression
(optional), then `tower.resolve_signs`, which proves each sign from direct
cosine sums or checks a stored one, then `tower.evaluate_tower`, which
compiles the tower's arithmetic program (the one `compile` writes), runs it
node by node, proves each node value by its radius against the same sums
and p1 against 2cos(2 pi / n), and writes the tower's report.
Every command that reads a tower runs it: `build`, `verify`, `render`, and
`compile`, which writes the program the pipeline ran.

The oracle check is `oracle.Oracle`, whose module docstring says what it
proves and why that is exact.  Every failed check raises a
`VerificationError` naming its node, and the first one ends the pass.
"""

from .invariant_sets import InvariantSetTable
# perfbench's `oracle.expand` span resolves `pv_of_part` in this module.
from .oracle import Oracle, OracleMismatch, pv_of_part
from .tower import Tower, evaluate_tower, resolve_signs

__all__ = [
    "OracleMismatch", "pv_of_part", "oracle_check_node", "oracle_check_tower", "verify_tower",
]


def oracle_check_node(node, table: InvariantSetTable, oracle: Oracle | None = None) -> None:
    """Exact check of one node's product expression; `oracle` carries the
    tables of a pass (a fresh one when None)."""
    (Oracle(table) if oracle is None else oracle).check(node)


def oracle_check_tower(tower: Tower) -> int:
    """Exact check of every node, in one pass; returns how many were checked."""
    oracle = Oracle(tower.table)
    for node in tower.nodes:
        oracle_check_node(node, tower.table, oracle)
    return len(tower.nodes)


def verify_tower(tower: Tower, oracle: bool = True) -> tuple:
    """The check pipeline; raises the first `VerificationError` it meets.

    Runs the exact oracle on every product expression (when `oracle`), then
    proves the signs from direct cosine sums at the tower's precision (a
    stored sign, margin or value that disagrees fails), then runs the
    tower's arithmetic program, proving each value by its radius against
    those sums as it lands, then p1 against 2cos(2 pi / n).  The tower's
    report records the result.  Returns the program that ran and the sign
    (-1, 0 or 1) of each of its instruction values; no value is kept.
    """
    checked = oracle_check_tower(tower) if oracle else 0
    resolve_signs(tower)
    run = evaluate_tower(tower)
    tower.report.oracle_checked = checked
    return run
