"""Exact integer arithmetic in the span of the pairs p_k = z^k + z^(n-k).

This is the brute-force referee for every symbolic identity in the engine.
A product is the exact cyclic convolution of the two vectors embedded in
Z[z]/(z^n - 1), with p_k at z^k and z^(n-k) and the constant at z^0.  The
convolution uses no invariant-set structure, so its results are independent
of the fast symbolic path.  Small products scatter every pair product
directly; large ones go through a floating-point FFT rounded to integers.
Each route has an exactness guard, and a product either guard refuses is
expanded over Python integers with the two-pair rule

    p_k * p_m = p_|k-m| + p_min(k+m, n-(k+m))      (k != m)
    p_k * p_k = p_min(2k, n-2k) + 2

which stays the reference definition (`pair_product`, `_pair_mul_bigint`).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import VerificationError
from .invariant_sets import InvariantSetTable
from .period_algebra import SetCombination
from .residues import FermatParams, pair_of

# Largest |coefficient| budget for the int64 path; beyond this the
# pure-Python big-integer path is used so results stay exact.
_INT64_SAFE = 1 << 52

# Exactness guard of the FFT route.  Percival's bound for an FFT product of
# length L = 2^k in float64 (eps = 2^-53, twiddle error taken as eps) is
#     |error| < |x|_2 |y|_2 ((1+eps)^3k (1+eps*sqrt5)^(3k+1) (1+eps)^3k - 1),
# below 3.5e-14 |x|_2 |y|_2 for k <= 24.  As |.|_2 <= |.|_1, a product with
# |A|_1 |B|_1 <= 2^42 has each linear coefficient off by less than 0.16, and
# each folded one, a sum of two, by less than 0.32, so rounding is exact.
# numpy's transform is not the radix-2 one the bound is proved for, so the
# rounding residual of every result is checked as well.
_FFT_SAFE = 1 << 42
_FFT_MAX_LENGTH = 1 << 24

# Size rule: a product with more than this many pair products per FFT point,
# nnz(a) * nnz(b) > _FFT_PAIRS_PER_POINT * L, takes the FFT route.  Measured
# on 0/1 vectors (2-vCPU x86-64, numpy 2.4): at n = 257 (L = 2^10) 4096 = 4L
# pair products take 0.08 ms direct and 0.09 ms by FFT, 16L take 0.20 ms
# and 0.10 ms; at n = 65537 (L = 2^18) 2L take 14 ms and 16 ms, 4L 29 ms and
# 13 ms.  The whole 65537 oracle pass took 3.3-4.1 s with 4 and 2.7-4.0 s
# with 1, 2 or 8, a difference the host's noise hides; 4 keeps every product
# at n <= 257, where the routes are level, on the direct route.
_FFT_PAIRS_PER_POINT = 4


class NotSetUniform(VerificationError):
    """A vector claimed to be a sum of invariant sets has unequal coefficients
    inside some set."""


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
        return np.nonzero(self.coeffs)[0]


def pv_zero(params: FermatParams) -> PeriodVector:
    return PeriodVector(params.n, 0, np.zeros(params.npairs + 1, dtype=np.int64))


def pv_from_pairs(pairs, params: FermatParams, constant: int = 0) -> PeriodVector:
    """Indicator vector of the given pair numbers."""
    idx = np.asarray(pairs, dtype=np.int64)
    bad = idx[(idx < 1) | (idx > params.npairs)]
    if bad.size:
        raise ValueError(f"pair number {bad[0]} out of range [1, {params.npairs}]")
    coeffs = np.bincount(idx, minlength=params.npairs + 1).astype(np.int64, copy=False)
    return PeriodVector(params.n, constant, coeffs)


def pv_s(params: FermatParams) -> PeriodVector:
    """The full sum S = p_1 + ... + p_npairs (value -1)."""
    coeffs = np.ones(params.npairs + 1, dtype=np.int64)
    coeffs[0] = 0
    return PeriodVector(params.n, 0, coeffs)


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
    """Exact product of a and b in Z[z]/(z^n - 1)."""
    a._check(b)
    ai = a.nonzero_pairs()
    bi = b.nonzero_pairs()
    if ai.size * bi.size <= _FFT_PAIRS_PER_POINT * _fft_length(a.n):
        product = _mul_direct(a, b, ai, bi)
    else:
        product = _mul_fft(a, b, ai, bi)
    return product if product is not None else _mul_bigint(a, b, ai, bi)


def _fft_length(n: int) -> int:
    """Smallest power of two that holds the linear convolution, >= 2n - 1."""
    return 1 << (2 * n - 2).bit_length()


def _l1(v: PeriodVector, idx) -> int:
    """|A|_1 of the embedding A of v, exactly: |constant| + 2 * sum |c_k|.

    Every coefficient of a product, and every partial sum either route
    forms, is at most |A|_1 |B|_1 in magnitude.
    """
    return abs(int(v.constant)) + 2 * int(np.abs(v.coeffs[idx]).astype(object).sum())


def _mul_direct(a, b, ai, bi):
    """Small products: scatter every pair product by the two-pair rule.

    `pv_mul` sends a product here only when nnz(a) nnz(b) <= 4L, L the FFT
    length: at most 2^20 pair products at n = 65537 (L = 2^18), so the
    temporaries are at most 8 MB each and are built in one pass.

    Returns None when the float64 sums of bincount, and int64, might not hold
    the result exactly.
    """
    if _l1(a, ai) * _l1(b, bi) >= 2 * _INT64_SAFE:
        return None
    n = a.n
    ac = a.coeffs.astype(np.int64, copy=False)
    bc = b.coeffs.astype(np.int64, copy=False)
    k = ai[:, None]
    vals = (ac[k] * bc[bi]).ravel()
    s = k + bi
    np.minimum(s, n - s, out=s)
    # A squared pair has d = 0 and lands in the unused slot 0: it stands for
    # z^0 + z^-0, that is 2 on the constant.
    out = np.bincount(np.abs(k - bi).ravel(), weights=vals, minlength=ac.shape[0])
    out += np.bincount(s.ravel(), weights=vals, minlength=ac.shape[0])
    pairs = out.astype(np.int64)
    const = 2 * int(pairs[0])
    pairs[0] = 0
    coeffs = pairs + a.constant * bc + b.constant * ac
    return PeriodVector(n, const + a.constant * b.constant, coeffs)


def _mul_fft(a, b, ai, bi):
    """Large products: linear convolution by real FFT, folded mod z^n - 1.

    Returns None when the a-priori bound or the rounding residual cannot
    vouch for an exact result.
    """
    n = a.n
    length = _fft_length(n)
    if _l1(a, ai) * _l1(b, bi) > _FFT_SAFE or length > _FFT_MAX_LENGTH:
        return None
    linear = np.fft.irfft(
        np.fft.rfft(_embed(a, ai), length) * np.fft.rfft(_embed(b, bi), length), length
    )
    half = (n - 1) // 2
    cyclic = linear[: half + 1] + linear[n : n + half + 1]
    rounded = np.rint(cyclic)
    if np.abs(cyclic - rounded).max() >= 0.25:
        return None
    coeffs = rounded.astype(np.int64)
    const = int(coeffs[0])
    coeffs[0] = 0
    return PeriodVector(n, const, coeffs)


def _embed(v: PeriodVector, idx) -> np.ndarray:
    """v as a float64 coefficient array of length n over z^0 .. z^(n-1)."""
    x = np.zeros(v.n)
    x[0] = v.constant
    x[idx] = v.coeffs[idx]
    x[v.n - idx] = v.coeffs[idx]
    return x


def _mul_bigint(a, b, ai, bi):
    """Fallback: the two-pair rule over Python integers, constants included."""
    const, out = _pair_mul_bigint(a, b, ai, bi, a.n)
    coeffs = (
        out.astype(object)
        + a.constant * b.coeffs.astype(object)
        + b.constant * a.coeffs.astype(object)
    )
    if all(abs(c) < _INT64_SAFE for c in coeffs):
        coeffs = coeffs.astype(np.int64)
    return PeriodVector(a.n, const + a.constant * b.constant, coeffs)


def _pair_mul_bigint(a, b, ai, bi, n):
    # Arbitrary-width path for pathological coefficient sizes: plain Python
    # integers, upgraded to an object-dtype array when int64 cannot hold the
    # result (the fast routes must never wrap silently).
    acc: dict[int, int] = {}
    const = 0
    half = (n - 1) // 2
    for k in ai:
        av = int(a.coeffs[k])
        for m in bi:
            v = av * int(b.coeffs[m])
            if k == m:
                s = 2 * k
                s = s if s <= half else n - s
                acc[s] = acc.get(s, 0) + v
                const += 2 * v
            else:
                d = abs(int(k) - int(m))
                acc[d] = acc.get(d, 0) + v
                s = int(k) + int(m)
                s = s if s <= half else n - s
                acc[s] = acc.get(s, 0) + v
    big = any(abs(v) >= _INT64_SAFE for v in acc.values())
    out = np.zeros(half + 1, dtype=object if big else np.int64)
    for p, v in acc.items():
        out[p] += v
    return const, out


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
