"""Invariant sets: the partition of all pairs into doubling orbits.

The family is ordered by the factor rule: set k starts at the pair of
q^(k-1) mod n (default factor q = 3) and is completed by doubling.  This
ordering is what makes product decompositions shift-equivariant.
"""

from array import array
from dataclasses import dataclass, field

from .errors import UsageError, VerificationError
from .residues import FermatParams


class InvalidFactor(UsageError):
    """The generator factor cannot reach every invariant set."""


@dataclass(frozen=True)
class InvariantSetTable:
    """Ordered invariant sets plus the pair -> (set, position) lookup.

    sets[k-1] holds the pair numbers of set k in natural order (each entry the
    doubled predecessor).  set_of / pos_of are 1-based lookup arrays of C
    ints indexed by pair number (slot 0 unused).
    """

    params: FermatParams
    factor: int
    sets: tuple[tuple[int, ...], ...]
    set_of: array = field(repr=False, compare=False)
    pos_of: array = field(repr=False, compare=False)

    def first_pair(self, k: int) -> int:
        return self.sets[k - 1][0]

    def pairs_of_set(self, k: int) -> tuple[int, ...]:
        return self.sets[k - 1]


def validate_factor(q: int, params: FermatParams) -> bool:
    """True iff q generates all ng set starts; raises InvalidFactor for a
    q below 1 or, with more than one set, above n - 1.

    With ng = 1 there is nothing to generate and every q >= 1 is accepted.
    Otherwise the starts q^(k-1) must meet all ng cosets of the doubling
    orbit, a proper subgroup of the cyclic 2-group (Z/n)* and so inside its
    squares: that holds iff q is not a square, which Euler's criterion
    decides.
    """
    n = params.n
    if params.ng == 1:
        if q < 1:
            raise InvalidFactor(f"factor {q} is not positive")
        return True
    if not 1 <= q <= n - 1:
        raise InvalidFactor(f"factor {q} out of range [1, {n - 1}]")
    return pow(q, (n - 1) // 2, n) == n - 1


def build_invariant_sets(params: FermatParams, factor: int = 3) -> InvariantSetTable:
    """Build the ordered family of invariant sets for the given factor: set k
    is the orbit of the pair of q^(k-1) mod n under p -> min(2p, n - 2p),
    each pair entered in the lookup arrays as it is walked.  Raises
    InvalidFactor for a factor `validate_factor` refuses, and
    VerificationError for a pair met twice or never, or a factor rule that
    does not wrap back to set 1."""
    if not validate_factor(factor, params):
        raise InvalidFactor(f"factor {factor} does not generate the set family for n={params.n}")
    n, ng, npairs = params.n, params.ng, params.npairs
    set_of = array("i", [0]) * (npairs + 1)
    pos_of = array("i", [0]) * (npairs + 1)
    sets = []
    start_degree = 1
    for k in range(1, ng + 1):
        start = p = min(start_degree, n - start_degree)
        row = []
        while not row or p != start:
            if set_of[p]:
                raise VerificationError(f"pair {p} appears in sets {set_of[p]} and {k}")
            row.append(p)
            set_of[p], pos_of[p] = k, len(row)
            p = 2 * p if 2 * p <= npairs else n - 2 * p  # 2p mod n folded, as p < n/2
        sets.append(tuple(row))
        start_degree = (start_degree * factor) % n
    if set_of.count(0) != 1:
        missing = [p for p in range(1, npairs + 1) if not set_of[p]]
        raise VerificationError(f"pairs not covered: {missing[:10]}...")
    # Circularity: one more factor step from the last start must re-enter set 1.
    if ng > 1 and set_of[min(start_degree, n - start_degree)] != 1:
        raise VerificationError("factor rule does not wrap back to set 1")

    return InvariantSetTable(
        params=params,
        factor=factor,
        sets=tuple(sets),
        set_of=set_of,
        pos_of=pos_of,
    )


def locate_pair(table: InvariantSetTable, p: int) -> tuple[int, int]:
    """(set index, position) of pair p; total by the partition property."""
    if not 1 <= p <= table.params.npairs:
        raise ValueError(f"pair number {p} out of range [1, {table.params.npairs}]")
    return table.set_of[p], table.pos_of[p]
