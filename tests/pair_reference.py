"""Reference arithmetic in the span of the pairs p_k = z^k + z^(n-k): the
two-pair rule over Python integers.

A product applies

    p_k * p_m = p_|k-m| + p_min(k+m, n-(k+m))      (k != m)
    p_k * p_k = p_min(2k, n-2k) + 2

to every pair of nonzero coefficients, with the constants distributed
exactly.  It uses no invariant-set structure and no modular arithmetic, so
it referees both the symbolic products and the exact oracle.  It is plain
and quadratic: meant for the parts of towers up to n = 257 and for small
parts at n = 65537.
"""

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ngontower.invariant_sets import InvariantSetTable, LinearCombo, PartRef, check_part
from ngontower.residues import FermatParams, pair_of


@dataclass(frozen=True)
class PeriodVector:
    """constant + sum_k coeffs[k] * p_k, with 1-based coeffs (slot 0 unused)."""

    n: int
    constant: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        assert self.coeffs.shape == ((self.n - 1) // 2 + 1,)
        self.coeffs.setflags(write=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeriodVector):
            return NotImplemented
        return (
            self.n == other.n
            and self.constant == other.constant
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __add__(self, other: "PeriodVector") -> "PeriodVector":
        self._check(other)
        return PeriodVector(self.n, self.constant + other.constant, self.coeffs + other.coeffs)

    def __sub__(self, other: "PeriodVector") -> "PeriodVector":
        self._check(other)
        return PeriodVector(self.n, self.constant - other.constant, self.coeffs - other.coeffs)

    def scaled(self, c: int) -> "PeriodVector":
        return PeriodVector(self.n, c * self.constant, c * self.coeffs)

    def _check(self, other: "PeriodVector") -> None:
        if self.n != other.n:
            raise ValueError(f"mixed moduli {self.n} and {other.n}")

    def nonzero_pairs(self) -> np.ndarray:
        return np.nonzero(self.coeffs != 0)[0]


def pv_from_pairs(pairs, params: FermatParams, constant: int = 0) -> PeriodVector:
    """Indicator vector of the given pair numbers."""
    idx = np.asarray(pairs, dtype=np.int64)
    bad = idx[(idx < 1) | (idx > params.npairs)]
    if bad.size:
        raise ValueError(f"pair number {bad[0]} out of range [1, {params.npairs}]")
    coeffs = np.bincount(idx, minlength=params.npairs + 1).astype(np.int64, copy=False)
    return PeriodVector(params.n, constant, coeffs)


def part_pairs(p: PartRef, table: InvariantSetTable) -> tuple[int, ...]:
    """All pair numbers covered by the part, in member order: its sets
    one after another for an F part.  The program places a part through
    `invariant_sets.part_members`; this spells out every pair."""
    check_part(p, table.params)
    if p.kind == "F":
        return tuple(chain.from_iterable(table.sets[p.offset - 1 :: p.stride]))
    return table.sets[p.set_index - 1][p.offset - 1 :: p.stride]


def pv_of_part(part: PartRef, table: InvariantSetTable) -> PeriodVector:
    return pv_from_pairs(part_pairs(part, table), table.params)


def pair_product(k: int, m: int, n: int) -> PeriodVector:
    """Product of two single pairs as a PeriodVector."""
    npairs = (n - 1) // 2
    if not (1 <= k <= npairs and 1 <= m <= npairs):
        raise ValueError(f"pair numbers ({k}, {m}) out of range [1, {npairs}]")
    coeffs = np.zeros(npairs + 1, dtype=np.int64)
    if k == m:
        coeffs[pair_of((2 * k) % n, n)] += 1
        return PeriodVector(n, 2, coeffs)
    coeffs[abs(k - m)] += 1
    coeffs[min(k + m, n - (k + m))] += 1
    return PeriodVector(n, 0, coeffs)


def pv_mul(a: PeriodVector, b: PeriodVector) -> PeriodVector:
    """Exact product of a and b in Z[z]/(z^n - 1), over Python integers."""
    a._check(b)
    n = a.n
    ai, bi = a.nonzero_pairs(), b.nonzero_pairs()
    vals = np.multiply.outer(a.coeffs[ai].astype(object), b.coeffs[bi].astype(object)).ravel()
    s = (ai[:, None] + bi).ravel()
    out = np.zeros((n - 1) // 2 + 1, dtype=object)
    np.add.at(out, np.abs(ai[:, None] - bi).ravel(), vals)
    np.add.at(out, np.minimum(s, n - s), vals)
    # A squared pair has |k - m| = 0: slot 0 stands for z^0 + z^-0 = 2.
    const = 2 * out[0] + a.constant * b.constant
    out[0] = 0
    out += a.constant * b.coeffs.astype(object) + b.constant * a.coeffs.astype(object)
    return PeriodVector(n, const, out)


def expand_doubled(combo: LinearCombo, table: InvariantSetTable) -> PeriodVector:
    """2 * combo (its coefficients, which count halves, as they stand),
    summed one full-length vector per term."""
    params = table.params
    acc = PeriodVector(params.n, combo.constant, np.zeros(params.npairs + 1, dtype=np.int64))
    for c, p in combo.linear:
        acc = acc + pv_of_part(p, table).scaled(c)
    for c, p in combo.squares:
        pvp = pv_of_part(p, table)
        acc = acc + pv_mul(pvp, pvp).scaled(c)
    return acc


def equal_as_numbers(a: PeriodVector, b: PeriodVector) -> bool:
    """a == b in Z[z]: their difference is a multiple of 1 + S = 0, so
    every pair coefficient of it equals its constant."""
    d = a - b
    return all(c == d.constant for c in d.coeffs[1:].tolist())
