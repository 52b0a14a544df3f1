"""Test helpers around the exact oracle: the zero and all-ones vectors,
conversions between period vectors and invariant-set combinations, images
of period vectors and expressions at the oracle's conjugates, and an
expression's image taken term by term."""

from operator import mul

import numpy as np

from ngontower.errors import VerificationError
from ngontower.invariant_sets import InvariantSetTable
from ngontower.oracle import Oracle
from ngontower.period_algebra import SetCombination
from ngontower.residues import FermatParams
from ngontower.splitting import LinearCombo

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


def pv_image(v: PeriodVector, oracle: Oracle, index: int, field) -> list[int]:
    """v at the conjugates t = 0 .. index-1 modulo field.prime: pair k, of
    discrete log i, maps to ps[(i + t) mod h] (`field.eta[h]` holds ps)."""
    ell, h = field.prime, oracle.table.params.npairs
    ps = field.eta[h].tolist() * 2
    by_log = [0] * h
    for k in range(1, h + 1):
        by_log[oracle.logs[k]] = int(v.coeffs[k])
    return [(int(v.constant) + sum(map(mul, by_log, ps[t : t + h]))) % ell for t in range(index)]


def expression_image_by_terms(oracle: Oracle, combo: LinearCombo, index: int, field, block=None):
    """`Oracle.expression_image` the plain way: each term tiled to the whole
    block from the field's periods, raised to its power and added in, one
    term at a time.  The period (D, r) is eta_D[(r + t) mod D] at conjugate
    t.  The parts must be placed."""
    ell = field.prime
    block = range(index) if block is None else block
    image = [combo.constant % ell] * len(block)
    for terms, power in ((combo.linear, 1), (combo.squares, 2)):
        for c, part in terms:
            d, r = oracle.places[part]
            eta = field.eta[d]
            tiled = [eta[(r + t) % d] for t in block]
            image = [(s + c * pow(v, power, ell)) % ell for s, v in zip(image, tiled)]
    return image


def same_expression(oracle: Oracle, a: LinearCombo, b: LinearCombo) -> bool:
    """a == b as numbers, decided at the conjugates of their parts modulo
    enough primes: no coefficient of a - b in the basis z^1 .. z^(n-1)
    exceeds the sum of their bounds."""
    parts = a.referenced_parts() + b.referenced_parts()
    assert all(oracle.place(p) for p in parts)
    index = max(oracle.places[p][0] for p in parts)
    bound = oracle.expression_bound(a) + oracle.expression_bound(b)
    return all(
        oracle.expression_image(a, index, f) == oracle.expression_image(b, index, f)
        for f in oracle.fields_for(bound)
    )
