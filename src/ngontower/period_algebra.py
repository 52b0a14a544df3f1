"""Fast symbolic products of invariant sets.

A product G_i * G_j decomposes into a sum of whole invariant sets (a square
additionally yields the constant 2^(nu+1)).  The decomposition is found by
classifying the products of one fixed pair against all pairs of the other set;
the rotation argument then lifts each classified pair to its full set.  Cost is
2^(nu+1) classifications instead of the 4^nu pair products of multiplying
the two sets out by the two-pair rule.
"""

from dataclasses import dataclass
from itertools import compress

from .errors import UsageError
from .invariant_sets import InvariantSetTable


@dataclass(frozen=True)
class SetCombination:
    """constant + sum_k coeffs[k-1] * G_k over invariant sets."""

    ng: int
    constant: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        assert len(self.coeffs) == self.ng

    def terms(self) -> list[tuple[int, int]]:
        """(set index, coefficient) for the nonzero entries."""
        # compress skips the zeros in C; a set product has few nonzero sets.
        coeffs = self.coeffs
        return [(i + 1, coeffs[i]) for i in compress(range(self.ng), coeffs)]



def _classify_products(fixed_pair: int, other_pairs, table: InvariantSetTable):
    """Tally the invariant sets hit by fixed_pair * p for p in other_pairs;
    returns (per-set tally, constant)."""
    n = table.params.n
    half = table.params.npairs
    tally = [0] * table.params.ng
    const = 0
    set_of = table.set_of
    for m in other_pairs:
        if m == fixed_pair:
            s = 2 * m
            tally[set_of[s if s <= half else n - s] - 1] += 1
            const += 2
        else:
            tally[set_of[abs(fixed_pair - m)] - 1] += 1
            s = fixed_pair + m
            tally[set_of[s if s <= half else n - s] - 1] += 1
    return tally, const


def set_product(i: int, j: int, table: InvariantSetTable) -> SetCombination:
    """Decomposition of G_i * G_j (or of the square when i == j).

    The fixed pair is always the first pair of the lower-numbered set, which
    makes every emitted table reproducible bit for bit.
    """
    ng = table.params.ng
    if not (1 <= i <= ng and 1 <= j <= ng):
        raise UsageError(f"set indices ({i}, {j}) out of range [1, {ng}]")
    a, b = min(i, j), max(i, j)
    tally, const = _classify_products(table.first_pair(a), table.pairs_of_set(b), table)
    if i == j:
        # Rotating the fixed pair contributes the squared-pair constant once
        # per rotation: 2 * 2^nu in total.
        const = 2 * len(table.pairs_of_set(i))
    return SetCombination(ng=ng, constant=const, coeffs=tuple(tally))


def set_square(i: int, table: InvariantSetTable) -> SetCombination:
    return set_product(i, i, table)
