"""Exact integer arithmetic in the span of the pairs p_k = z^k + z^(n-k).

This is the brute-force referee for every symbolic identity in the engine.
A product applies the two-pair rule

    p_k * p_m = p_|k-m| + p_min(k+m, n-(k+m))      (k != m)
    p_k * p_k = p_min(2k, n-2k) + 2

to every pair of nonzero coefficients, with the constants distributed
exactly.  It uses no invariant-set structure, so its results are independent
of the fast symbolic path.  Small products scatter every pair product
directly; large ones compute the rule's correlation and convolution of the
two pair vectors by a floating-point FFT rounded to integers.  Each route has
an exactness guard, and a product either guard refuses is expanded over
Python integers, which stays the reference definition (`pair_product`,
`_pair_mul_bigint`).
"""

from dataclasses import dataclass, field

import numpy as np

from .residues import FermatParams, pair_of

# Largest |coefficient| budget for the int64 path; beyond this the
# pure-Python big-integer path is used so results stay exact.
_INT64_SAFE = 1 << 52

# Exactness guard of the FFT route.  Percival's bound for a cyclic
# convolution of length L = 2^k by FFT in float64 (eps = 2^-53, twiddle
# error taken as eps) is
#     |error| < |x|_2 |y|_2 ((1+eps)^3k (1+eps*sqrt5)^(3k+1) (1+eps)^3k - 1),
# below 3.5e-14 |x|_2 |y|_2 for k <= 24.  The route transforms the pair
# coefficients alone, whose |.|_1 is at most half the embedding's |A|_1, so
# |A|_1 |B|_1 <= 2^42 gives |x|_2 |y|_2 <= |x|_1 |y|_1 <= 2^40.  The
# correlation is the convolution with y reversed, of the same norm.  Each of
# the four terms a pair coefficient collects (two of the convolution, two of
# the correlation) is then off by less than 0.04, their sum by less than
# 0.16, so rounding is exact.  numpy's transform is not the radix-2 one the
# bound is proved for, so the rounding residual of every result is checked
# as well.
_FFT_SAFE = 1 << 42
_FFT_MAX_LENGTH = 1 << 24

# Size rule: a product with nnz(a) * nnz(b) > max(2L, 2^13) pair products,
# L the FFT length, takes the FFT route.  Measured on 0/1 vectors (2-vCPU
# x86-64, numpy 2.4, best of 5 or 20 runs): at n = 65537 (L = 2^16) 2^17
# pair products take 3.8 ms direct and 5.0 ms by FFT, 2^18 take 7.5 and
# 4.1 ms, 2^20 29 and 3.9 ms; at n = 257 (L = 2^8) 2^12 take 0.07 and
# 0.09 ms, 2^13 0.12 and 0.09 ms.  2L caps the direct route's temporaries
# at 2^17 entries (1 MB each); the floor keeps every product of a tower at
# n <= 257 (at most 2^12 pair products) on the direct route, so small
# builds never load numpy.fft.
_FFT_PAIRS_PER_POINT = 2
_DIRECT_FLOOR = 1 << 13


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
        # numpy scans a bool mask about five times faster than int64 values.
        return np.nonzero(self.coeffs != 0)[0]


def pv_from_pairs(pairs, params: FermatParams, constant: int = 0) -> PeriodVector:
    """Indicator vector of the given pair numbers."""
    idx = np.asarray(pairs, dtype=np.int64)
    bad = idx[(idx < 1) | (idx > params.npairs)]
    if bad.size:
        raise ValueError(f"pair number {bad[0]} out of range [1, {params.npairs}]")
    coeffs = np.bincount(idx, minlength=params.npairs + 1).astype(np.int64, copy=False)
    return PeriodVector(params.n, constant, coeffs)


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
    if ai.size * bi.size <= max(_FFT_PAIRS_PER_POINT * _fft_length(a.n), _DIRECT_FLOOR):
        product = _mul_direct(a, b, ai, bi)
    else:
        product = _mul_fft(a, b, ai, bi)
    return product if product is not None else _mul_bigint(a, b, ai, bi)


def _fft_length(n: int) -> int:
    """Smallest power of two that holds the linear convolution of the pair
    coefficients p_1 .. p_h (h = (n-1)/2): >= 2h - 1 = n - 2."""
    return 1 << (n - 3).bit_length()


def _l1(v: PeriodVector, idx) -> int:
    """|A|_1 of the embedding A of v, exactly: |constant| + 2 * sum |c_k|.

    Every coefficient of a product, and every partial sum either route
    forms, is at most |A|_1 |B|_1 in magnitude.  The sum is taken in int64
    when max |c_k| * nnz < 2^61 bounds it, else over Python integers.
    """
    c = v.coeffs[idx]
    if c.dtype == object or (c.size and max(int(c.max()), -int(c.min())) * c.size >= 1 << 61):
        c = c.astype(object, copy=False)
    return abs(int(v.constant)) + 2 * int(np.abs(c).sum())


def _mul_direct(a, b, ai, bi):
    """Small products: scatter every pair product by the two-pair rule.

    `pv_mul` sends a product here only when nnz(a) nnz(b) <= max(2L, 2^13),
    L the FFT length: at most 2^17 pair products at n = 65537 (L = 2^16), so
    the temporaries are at most 1 MB each and are built in one pass.

    Returns None when the float64 sums of bincount, and int64, might not hold
    the result exactly.
    """
    if _l1(a, ai) * _l1(b, bi) >= 2 * _INT64_SAFE:
        return None
    n = a.n
    size = a.coeffs.shape[0]
    k = ai[:, None]
    d = k - bi
    np.abs(d, out=d)
    s = k + bi
    np.minimum(s, n - s, out=s)
    # Indicator vectors, the factors of every product a tower check makes,
    # need no weights: bincount then counts in int64.
    ca, cb = a.coeffs[ai], b.coeffs[bi]
    unit = (ca == 1).all() and (cb == 1).all()
    vals = None if unit else (ca[:, None] * cb).astype(np.int64, copy=False).ravel()
    # A squared pair has d = 0 and lands in the unused slot 0: it stands for
    # z^0 + z^-0, that is 2 on the constant.
    out = np.bincount(d.ravel(), weights=vals, minlength=size)
    out += np.bincount(s.ravel(), weights=vals, minlength=size)
    return _with_constants(a, b, out.astype(np.int64, copy=False))


def _mul_fft(a, b, ai, bi):
    """Large products: the two-pair rule by real FFT in the pair basis.

    With x_i = a_(i+1) and y_i = b_(i+1) (i = 0 .. h-1), a pair product
    a_k b_m lands at |k - m| through the correlation of x and y and at
    k + m, folded to n - (k + m) above h, through their convolution; the
    correlation at 0 counts the squared pairs.  Both are linear, of length
    2h - 1, so a cyclic transform of length L >= n - 2 holds them unfolded.

    Returns None when the a-priori bound or the rounding residual cannot
    vouch for an exact result.
    """
    n = a.n
    half = (n - 1) // 2
    length = _fft_length(n)
    if _l1(a, ai) * _l1(b, bi) > _FFT_SAFE or length > _FFT_MAX_LENGTH:
        return None
    fa = np.fft.rfft(a.coeffs[1:].astype(np.float64), length)
    fb = np.fft.rfft(b.coeffs[1:].astype(np.float64), length)
    conv = np.fft.irfft(fa * fb, length)
    corr = np.fft.irfft(fa * fb.conj(), length)
    linear = np.zeros(half + 1)
    linear[:half] = corr[:half]  # k - m = j >= 0
    linear[1:half] += corr[: length - half : -1]  # k - m = -j, stored at L - j
    linear[2:] += conv[: half - 1]  # k + m = j, stored at j - 2
    linear[1:] += conv[half - 1 : 2 * half - 1][::-1]  # k + m = n - j
    rounded = np.rint(linear)
    if np.abs(linear - rounded).max() >= 0.25:
        return None
    return _with_constants(a, b, rounded.astype(np.int64))


def _with_constants(a, b, pairs):
    """a * b from the product of their pair parts, `pairs` (int64, slot 0
    counting the squared pairs): the constants' terms are added exactly in
    int64, which the callers' guards bound."""
    const = 2 * int(pairs[0]) + a.constant * b.constant
    pairs[0] = 0
    if a.constant:
        pairs += a.constant * b.coeffs.astype(np.int64, copy=False)
    if b.constant:
        pairs += b.constant * a.coeffs.astype(np.int64, copy=False)
    return PeriodVector(a.n, const, pairs)


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


