"""Test helpers around the exact oracle: the zero and all-ones vectors, and
conversions between period vectors and invariant-set combinations."""

import numpy as np

from ngontower.errors import VerificationError
from ngontower.invariant_sets import InvariantSetTable
from ngontower.oracle import PeriodVector
from ngontower.period_algebra import SetCombination
from ngontower.residues import FermatParams


class NotSetUniform(VerificationError):
    """A vector claimed to be a sum of invariant sets has unequal coefficients
    inside some set."""


def pv_zero(params: FermatParams) -> PeriodVector:
    return PeriodVector(params.n, 0, np.zeros(params.npairs + 1, dtype=np.int64))


def pv_s(params: FermatParams) -> PeriodVector:
    """The full sum S = p_1 + ... + p_npairs (value -1)."""
    coeffs = np.ones(params.npairs + 1, dtype=np.int64)
    coeffs[0] = 0
    return PeriodVector(params.n, 0, coeffs)


def decompose_into_sets(v: PeriodVector, table: InvariantSetTable) -> SetCombination:
    """Rewrite v as constant + sum of whole invariant sets.

    Raises NotSetUniform when some set carries unequal pair coefficients,
    which signals a violated decomposition claim.
    """
    params = table.params
    if v.n != params.n:
        raise ValueError("table and vector moduli differ")
    coeffs = []
    for k, row in enumerate(table.sets, start=1):
        vals = {int(v.coeffs[p]) for p in row}
        if len(vals) != 1:
            raise NotSetUniform(f"set {k} has mixed pair coefficients {sorted(vals)}")
        coeffs.append(vals.pop())
    return SetCombination(ng=params.ng, constant=v.constant, coeffs=tuple(coeffs))


def combination_to_pv(c: SetCombination, table: InvariantSetTable) -> PeriodVector:
    """Expand a set combination back to the pair basis."""
    coeffs = np.zeros(table.params.npairs + 1, dtype=np.int64)
    for k, ck in enumerate(c.coeffs, start=1):
        if ck:
            for p in table.sets[k - 1]:
                coeffs[p] += ck
    return PeriodVector(table.params.n, c.constant, coeffs)
