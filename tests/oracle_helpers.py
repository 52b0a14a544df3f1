"""Test helpers around the exact oracle: the zero and all-ones vectors,
conversions between period vectors and invariant-set combinations, the
oracle's expansions read back in the pair basis, and two expressions
compared by the oracle's expansion."""

from math import isqrt

import numpy as np

from ngontower.errors import VerificationError
from ngontower.invariant_sets import InvariantSetTable, LinearCombo
from ngontower.oracle import Oracle
from ngontower.period_algebra import SetCombination
from ngontower.residues import FermatParams

from pair_reference import PeriodVector


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


def in_pairs(oracle: Oracle, expanded: tuple, index: int) -> PeriodVector:
    """(c, a) from `Oracle.expand` or the oracle's `pv_mul`, c + sum_j a[j]
    eta_index(j), in the pair basis: pair k, of discrete log i, has the
    coefficient a[i mod index]."""
    constant, coeffs = expanded
    h = oracle.table.params.npairs
    folded = [0] + [coeffs.get(oracle.logs[k] % index, 0) for k in range(1, h + 1)]
    return PeriodVector(oracle.table.params.n, constant, np.array(folded, dtype=object))


def terms_of(combo: LinearCombo, sign: int = 1) -> tuple[list, list]:
    """The combo's linear terms, and its squares as products, times `sign`:
    the arguments `Oracle.expand` takes after the constant."""
    return [(sign * c, p) for c, p in combo.linear], [(sign * c, p, p) for c, p in combo.squares]


def same_expression(oracle: Oracle, a: LinearCombo, b: LinearCombo) -> bool:
    """a == b as numbers: a - b, expanded by the oracle in the basis of the
    periods of the largest index among their parts, has every coefficient
    equal to its constant."""
    parts = a.referenced_parts() + b.referenced_parts()
    assert all(oracle.place(p) for p in parts)
    index = max(oracle.places[p][0] for p in parts)
    (linear_a, squares_a), (linear_b, squares_b) = terms_of(a), terms_of(b, -1)
    constant, coeffs = oracle.expand(
        a.constant - b.constant, linear_a + linear_b, squares_a + squares_b, index
    )
    return all(coeffs.get(j, 0) == constant for j in range(index))


def prime_below_2_31(n: int) -> int:
    """The largest prime l = 1 (mod n) below 2^31, by trial division: a
    modulus that a check by conjugates modulo l would take first."""
    ell = (2**31 - 2) // (2 * n) * (2 * n) + 1
    while any(ell % p == 0 for p in range(3, isqrt(ell) + 1, 2)):
        ell -= 2 * n
    return ell
