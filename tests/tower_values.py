"""Test helper: the value of every part a tower's nodes evaluated."""

import mpmath as mp

from ngontower.tower import _root_part


def part_values(tower) -> dict:
    """Part -> evaluated value, replayed from stored node values."""
    values = {_root_part(tower.params): mp.mpf(-1)}
    for node in tower.nodes:
        values[node.left] = node.value_left
        values[node.right] = node.value_right
    return values
