"""Fast symbolic products of invariant sets.

A product G_i * G_j decomposes into a sum of whole invariant sets (a square
additionally yields the constant 2^(nu+1)).  The decomposition is found by
classifying the products of one fixed pair against all pairs of the other set;
the rotation argument then lifts each classified pair to its full set.  Cost is
2^(nu+1) classifications instead of the 4^nu pair products of multiplying
the two sets out by the two-pair rule.

`product_sets` is the one classification.  `set_product` tallies its sets;
`splitting.mu_table` tallies them straight into mu(k, 2^m), with no
set-wide vector above the bottom level.
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


def product_sets(i: int, j: int, table: InvariantSetTable) -> list[int]:
    """The invariant set of each pair in the classified products of G_i * G_j,
    by p_a * p_b = p_|a-b| + p_(a+b) (p_a^2 = p_2a + 2, the 2 left out): the
    first pair of the lower-numbered set times every pair of the other, a
    fixed choice that makes every emitted table reproducible bit for bit."""
    ng = table.params.ng
    if not (1 <= i <= ng and 1 <= j <= ng):
        raise UsageError(f"set indices ({i}, {j}) out of range [1, {ng}]")
    n, half, set_of = table.params.n, table.params.npairs, table.set_of
    a = table.first_pair(min(i, j))
    others = table.pairs_of_set(max(i, j))
    diffs = [set_of[abs(a - b)] for b in others if b != a]
    return diffs + [set_of[a + b if a + b <= half else n - a - b] for b in others]


def set_product(i: int, j: int, table: InvariantSetTable) -> SetCombination:
    """Decomposition of G_i * G_j (or of the square when i == j)."""
    tally = [0] * table.params.ng
    for k in product_sets(i, j, table):
        tally[k - 1] += 1
    # Rotating the fixed pair of a square contributes the squared-pair
    # constant once per rotation: 2 * 2^nu in total.
    const = 2 * len(table.pairs_of_set(i)) if i == j else 0
    return SetCombination(ng=table.params.ng, constant=const, coeffs=tuple(tally))


def set_square(i: int, table: InvariantSetTable) -> SetCombination:
    return set_product(i, i, table)
