"""Test helpers: a raw float as an mpf, and the value of every part a
tower's nodes evaluated."""

import mpmath as mp

from ngontower.tower import _root_part


def mpf(raw):
    """The mpf of a raw float (sign, man, exp, bc) that the program holds,
    exact at any working precision."""
    return mp.mp.make_mpf(raw)


def part_values(tower) -> dict:
    """Part -> evaluated value as an mpf, replayed from stored node values."""
    values = {_root_part(tower.params): mp.mpf(-1)}
    for node in tower.nodes:
        values[node.left] = mpf(node.value_left)
        values[node.right] = mpf(node.value_right)
    return values
