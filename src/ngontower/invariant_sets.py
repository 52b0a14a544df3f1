"""Invariant sets: the partition of all pairs into doubling orbits.

The family is ordered by the factor rule: set k starts at the pair of
q^(k-1) mod n (default factor q = 3) and is completed by doubling.  This
ordering is what makes product decompositions shift-equivariant.
"""

from dataclasses import dataclass, field

import numpy as np

from .residues import FermatParams, pair_of, pair_orbit


class InvalidFactor(ValueError):
    """The generator factor cannot reach every invariant set."""


class PartitionFailure(RuntimeError):
    """Internal consistency check failed: some pair missed or duplicated."""


@dataclass(frozen=True)
class InvariantSetTable:
    """Ordered invariant sets plus the pair -> (set, position) lookup.

    sets[k-1] holds the pair numbers of set k in natural order (each entry the
    doubled predecessor); set_array is the same as a read-only int64
    (ng, 2^nu) array.  set_of / pos_of are 1-based lookup arrays indexed by
    pair number (slot 0 unused).
    """

    params: FermatParams
    factor: int
    sets: tuple[tuple[int, ...], ...]
    set_array: np.ndarray = field(repr=False, compare=False)
    set_of: np.ndarray = field(repr=False, compare=False)
    pos_of: np.ndarray = field(repr=False, compare=False)

    def first_pair(self, k: int) -> int:
        return self.sets[k - 1][0]

    def pairs_of_set(self, k: int) -> tuple[int, ...]:
        return self.sets[k - 1]


def validate_factor(q: int, params: FermatParams) -> bool:
    """True iff q generates all ng set starts: q^ng lands in the degree orbit
    of 1 while q^(ng/2) does not.

    With ng = 1 there is nothing to generate and every q is accepted.
    """
    n = params.n
    if not 1 <= q <= n - 1:
        raise ValueError(f"factor {q} out of range [1, {n - 1}]")
    if params.ng == 1:
        return True
    g1_degrees = set()
    d = 1
    for _ in range(params.orbit_len):
        g1_degrees.add(d)
        d = (2 * d) % n
    return pow(q, params.ng, n) in g1_degrees and pow(q, params.ng // 2, n) not in g1_degrees


def build_invariant_sets(params: FermatParams, factor: int = 3) -> InvariantSetTable:
    """Build the ordered family of invariant sets for the given factor."""
    # With a single invariant set the factor is never used to seed a start.
    if params.ng > 1 and not validate_factor(factor, params):
        raise InvalidFactor(f"factor {factor} does not generate the set family for n={params.n}")
    n, ng = params.n, params.ng
    sets = []
    start_degree = 1
    for _ in range(ng):
        sets.append(pair_orbit(pair_of(start_degree, n), n))
        start_degree = (start_degree * factor) % n

    set_of = np.zeros(params.npairs + 1, dtype=np.int32)
    pos_of = np.zeros(params.npairs + 1, dtype=np.int32)
    for k, row in enumerate(sets, start=1):
        for pos, p in enumerate(row, start=1):
            if set_of[p]:
                raise PartitionFailure(f"pair {p} appears in sets {set_of[p]} and {k}")
            set_of[p] = k
            pos_of[p] = pos
    if np.count_nonzero(set_of[1:]) != params.npairs:
        missing = [p for p in range(1, params.npairs + 1) if not set_of[p]]
        raise PartitionFailure(f"pairs not covered: {missing[:10]}...")
    # Circularity: one more factor step from the last start must re-enter set 1.
    if params.ng > 1 and set_of[pair_of(start_degree, n)] != 1:
        raise PartitionFailure("factor rule does not wrap back to set 1")

    set_array = np.array(sets, dtype=np.int64)
    for arr in (set_array, set_of, pos_of):
        arr.setflags(write=False)
    return InvariantSetTable(
        params=params,
        factor=factor,
        sets=tuple(sets),
        set_array=set_array,
        set_of=set_of,
        pos_of=pos_of,
    )


def locate_pair(table: InvariantSetTable, p: int) -> tuple[int, int]:
    """(set index, position) of pair p; total by the partition property."""
    if not 1 <= p <= table.params.npairs:
        raise ValueError(f"pair number {p} out of range [1, {table.params.npairs}]")
    return int(table.set_of[p]), int(table.pos_of[p])
