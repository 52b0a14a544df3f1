"""Test helpers: cross-checks of the paper's claims that no command runs --
the doubling orbit and the pair orbit, a second derivation of the F
products by the squares identity, the set shift of a combination, and the
multiplicities recovered from numeric values by a linear system."""

import numpy as np

from ngontower.errors import VerificationError
from ngontower.invariant_sets import InvariantSetTable, LinearCombo, f_part
from ngontower.period_algebra import SetCombination, set_product, set_square
from ngontower.residues import pair_of, rho


def doubling_orbit(start: int, n: int) -> tuple[int, ...]:
    """Orbit of an element degree under doubling mod n, up to first repetition.

    For Fermat-prime n the orbit always has length 2^(nu+1) and its m-th entry
    is inverse (mod n) to the (2^nu + m)-th.
    """
    if not 1 <= start <= n - 1:
        raise ValueError(f"start degree {start} out of range [1, {n - 1}]")
    orbit = [start]
    cur = (2 * start) % n
    while cur != start:
        orbit.append(cur)
        cur = (2 * cur) % n
    return tuple(orbit)


def pair_orbit(start: int, n: int) -> tuple[int, ...]:
    """Orbit of a pair number under doubling: r -> pair_of(2r mod n).

    Equals pair_of applied to the first half of the corresponding doubling
    orbit; length 2^nu.
    """
    if not 1 <= start <= (n - 1) // 2:
        raise ValueError(f"pair number {start} out of range [1, {(n - 1) // 2}]")
    orbit = [start]
    cur = pair_of((2 * start) % n, n)
    while cur != start:
        orbit.append(cur)
        cur = pair_of((2 * cur) % n, n)
    return tuple(orbit)


def f_split_product_squares(j: int, m: int, table: InvariantSetTable) -> LinearCombo:
    """Same product via the squares identity:
    (F^2(j,2^m) - Q1 - Pr1) / 2, expressed over level-m parts.

    Q1 collects the squares of all sets in F(j,2^m) (classified from one set
    square), Pr1 the doubled cross products inside each half (classified from
    the half row with the middle product counted once).
    """
    ng = table.params.ng
    stride = 1 << m
    if not 1 <= j <= stride:
        raise ValueError(f"offset {j} out of range [1, {stride}]")
    if 2 * stride > ng:
        raise ValueError(f"no F split below stride {stride} for ng={ng}")
    gamma = [0] * stride

    for l, c in set_square(1, table).terms():
        gamma[rho(l, stride) - 1] += c

    # Cross products G_1 * G_{1+t*2^(m+1)}: t below the middle counts twice.
    row_len = ng // (2 * stride)  # sets per half
    mid = row_len // 2
    for t in range(1, row_len):
        if t > mid:
            break
        comb = set_product(1, 1 + t * 2 * stride, table)
        weight = 1 if t == mid else 2
        for l, c in comb.terms():
            gamma[rho(l, stride) - 1] += weight * c

    linear = tuple(
        (-g, f_part(rho(k + j - 1, stride), stride))
        for k, g in enumerate(gamma, start=1)
        if g
    )
    # -(n-1)/(2 stride) in halves; n - 1 = 2^(2^k) is a multiple of stride.
    constant = -(table.params.n - 1) // stride
    return LinearCombo(constant=constant, linear=linear, squares=((1, f_part(j, stride)),))


def coeff_sum(c: SetCombination) -> int:
    return sum(c.coeffs)


def shift_combination(c: SetCombination, s: int, table: InvariantSetTable) -> SetCombination:
    """Renumber every set k to rho(k+s, ng); the constant is unchanged."""
    if s < 0:
        raise ValueError("shift height must be nonnegative")
    ng = table.params.ng
    out = [0] * ng
    for k, ck in enumerate(c.coeffs, start=1):
        if ck:
            out[rho(k + s, ng) - 1] += ck
    return SetCombination(ng=ng, constant=c.constant, coeffs=tuple(out))


class NonIntegralSolution(VerificationError):
    """The linear system for the multiplicities did not round cleanly."""


def mu_via_linear_system(level_values, sibling_products) -> tuple[int, ...]:
    """Solve the circulant system sum_k F(rho(k+j-1, L), L) * mu_k = product_j
    for the multiplicities, and round to integers.

    level_values are the L part values F(1, L)..F(L, L); sibling_products the
    numeric products of the two halves of each F(j, L).  Raises
    NonIntegralSolution when any component is further than 0.25 from an
    integer, which signals insufficient precision.
    """
    size = len(level_values)
    if len(sibling_products) != size:
        raise ValueError("need one sibling product per part")
    a = np.empty((size, size))
    for j in range(1, size + 1):
        for k in range(1, size + 1):
            a[j - 1, k - 1] = float(level_values[rho(k + j - 1, size) - 1])
    rhs = np.array([float(v) for v in sibling_products])
    x = np.linalg.solve(a, rhs)
    rounded = np.rint(x)
    residual = np.abs(x - rounded)
    if residual.max() >= 0.25:
        raise NonIntegralSolution(
            f"max rounding residual {residual.max():.3f}; raise the working precision"
        )
    return tuple(int(v) for v in rounded)
