"""Invariant sets: the partition of all pairs into doubling orbits, and the
parts of S read from it.

The family is ordered by the factor rule: set k starts at the pair of
q^(k-1) mod n (default factor q = 3) and is completed by doubling.  This
ordering is what makes product decompositions shift-equivariant.  Euler's
criterion on q proves that the starts partition the pairs, so a table holds
only its starts until its pairs are read; the first read walks every set
and runs the walk's own partition and wrap checks.

Two families of parts are split on the way from S down to p_1:

  F(j, 2^m)      every 2^m-th invariant set starting at G_j;
  G_k(j, 2^m)    every 2^m-th pair of set k starting at natural position j.

A `PartRef` names a part, `part_members` reads its sets or pairs and
`split_children` its halves; a `LinearCombo` is a product over parts.  A
tower, its file and its checks share these; `splitting` derives products.
"""

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import UsageError, VerificationError
from .residues import FermatParams


class InvalidFactor(UsageError):
    """The generator factor cannot reach every invariant set."""


@dataclass(frozen=True)
class InvariantSetTable:
    """Ordered invariant sets plus the pair -> (set, position) lookup.

    Set k is the doubling orbit of pair `starts[k-1]`, the pair of
    q^(k-1) mod n.  `build_invariant_sets` admits q by Euler's criterion
    (`validate_factor`), which proves that these starts meet each doubling
    coset exactly once, so the sets partition the pairs; the starts are all
    that is held until the pairs themselves are read.  sets[k-1] then holds
    the pair numbers of set k in natural order (each entry the doubled
    predecessor), and set_of / pos_of are 1-based lookup arrays of C ints
    indexed by pair number (slot 0 unused).  The first read of any of the
    three walks every set from its start (`_walk`, with its partition and
    wrap checks) and keeps the result.
    """

    params: FermatParams
    factor: int
    starts: array = field(repr=False, compare=False)

    @cached_property
    def _walked(self) -> tuple:
        return _walk(self)

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        return self._walked[0]

    @property
    def set_of(self) -> array:
        return self._walked[1]

    @property
    def pos_of(self) -> array:
        return self._walked[2]

    def first_pair(self, k: int) -> int:
        return self.starts[k - 1]

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
    """The ordered family of invariant sets for the given factor: set k
    starts at the pair of q^(k-1) mod n.  Only the starts are computed here;
    the pairs are walked on first read (`InvariantSetTable`).  Raises
    InvalidFactor for a factor `validate_factor` refuses."""
    if not validate_factor(factor, params):
        raise InvalidFactor(f"factor {factor} does not generate the set family for n={params.n}")
    n, starts, degree = params.n, array("i"), 1
    for _ in range(params.ng):
        starts.append(min(degree, n - degree))
        degree = degree * factor % n
    return InvariantSetTable(params=params, factor=factor, starts=starts)


def _walk(table: InvariantSetTable) -> tuple:
    """(sets, set_of, pos_of): set k is the orbit of its start under
    p -> min(2p, n - 2p), each pair entered in the lookup arrays as it is
    walked.  Raises VerificationError for a pair met twice or never, or a
    factor rule that does not wrap back to set 1."""
    params = table.params
    n, ng, npairs = params.n, params.ng, params.npairs
    set_of = array("i", [0]) * (npairs + 1)
    pos_of = array("i", [0]) * (npairs + 1)
    sets = []
    for k, start in enumerate(table.starts, start=1):
        p, row = start, []
        while not row or p != start:
            if set_of[p]:
                raise VerificationError(f"pair {p} appears in sets {set_of[p]} and {k}")
            row.append(p)
            set_of[p], pos_of[p] = k, len(row)
            p = 2 * p if 2 * p <= npairs else n - 2 * p  # 2p mod n folded, as p < n/2
        sets.append(tuple(row))
    if set_of.count(0) != 1:
        missing = [p for p in range(1, npairs + 1) if not set_of[p]]
        raise VerificationError(f"pairs not covered: {missing[:10]}...")
    # Circularity: one more factor step from the last start must re-enter set 1.
    wrap = pow(table.factor, ng, n)
    if ng > 1 and set_of[min(wrap, n - wrap)] != 1:
        raise VerificationError("factor rule does not wrap back to set 1")
    return tuple(sets), set_of, pos_of


def locate_pair(table: InvariantSetTable, p: int) -> tuple[int, int]:
    """(set index, position) of pair p; total by the partition property."""
    if not 1 <= p <= table.params.npairs:
        raise ValueError(f"pair number {p} out of range [1, {table.params.npairs}]")
    return table.set_of[p], table.pos_of[p]


class PartRef(NamedTuple):
    """A part of S.  kind "F": offset = starting set index; kind "G": the
    set index plus the starting pair position.  A G part whose stride equals
    the pair count of a set is a single pair.  Order and hash are those of
    the field tuple."""

    kind: str  # "F" or "G"
    offset: int
    stride: int
    set_index: int = 0

    def label(self, table: InvariantSetTable | None = None) -> str:
        if self.kind == "F":
            if self.stride == 1:
                return "S"
            return f"F({self.offset},{self.stride})"
        if self.stride == 1:
            return f"G{self.set_index}"
        if table is not None and self.is_single_pair(table.params):
            return f"p{self.pair_number(table)}"
        return f"G{self.set_index}({self.offset},{self.stride})"

    def is_single_pair(self, params) -> bool:
        return self.kind == "G" and self.stride == (1 << params.nu)

    def pair_number(self, table: InvariantSetTable) -> int:
        assert self.is_single_pair(table.params)
        return table.sets[self.set_index - 1][self.offset - 1]


@dataclass(frozen=True)
class LinearCombo:
    """(constant + sum c*part + sum c*part^2) / 2: every coefficient is an int
    counting halves (half-integers arise from the squares identities)."""

    constant: int
    linear: tuple[tuple[int, PartRef], ...]
    squares: tuple[tuple[int, PartRef], ...]

    def referenced_parts(self) -> list[PartRef]:
        return [p for _, p in self.linear] + [p for _, p in self.squares]


def f_part(j: int, stride: int) -> PartRef:
    return PartRef(kind="F", offset=j, stride=stride)


def g_part(k: int, j: int, stride: int) -> PartRef:
    return PartRef(kind="G", offset=j, stride=stride, set_index=k)


def check_part(p: PartRef, params) -> None:
    """Raise ValueError unless `p` names a part of S for these params: kind F
    (no set) or G with a set in 1..ng, an offset in 1..stride, and a stride
    dividing the set count (F) or the pairs per set (G)."""
    if p.kind == "F":
        if not (p.set_index == 0 and 1 <= p.offset <= p.stride and params.ng % p.stride == 0):
            raise ValueError(f"invalid F part {p}")
        return
    per_set = 1 << params.nu
    if not (
        p.kind == "G"
        and 1 <= p.set_index <= params.ng
        and 1 <= p.offset <= p.stride
        and per_set % p.stride == 0
    ):
        raise ValueError(f"invalid part {p}")


def part_members(p: PartRef, table: InvariantSetTable) -> tuple[int, ...]:
    """Set indices of an F part / pair numbers of a G part."""
    check_part(p, table.params)
    if p.kind == "F":
        return tuple(range(p.offset, table.params.ng + 1, p.stride))
    return table.sets[p.set_index - 1][p.offset - 1 :: p.stride]


def split_children(p: PartRef, table: InvariantSetTable) -> tuple[PartRef, PartRef]:
    """The two halves of a part, of doubled stride and the same kind, except
    at the bottom F level (2 stride = ng): there they are the whole sets
    G_j and G_(j+ng/2), the one place that names a single-set half."""
    if p.kind == "F":
        if 2 * p.stride > table.params.ng:
            raise ValueError(f"{p.label()} has no further F split")
        if 2 * p.stride == table.params.ng:
            return g_part(p.offset, 1, 1), g_part(p.offset + p.stride, 1, 1)
        return f_part(p.offset, 2 * p.stride), f_part(p.offset + p.stride, 2 * p.stride)
    if 2 * p.stride > (1 << table.params.nu):
        raise ValueError(f"{p.label()} is a single pair")
    return (
        g_part(p.set_index, p.offset, 2 * p.stride),
        g_part(p.set_index, p.offset + p.stride, 2 * p.stride),
    )
