"""Modular arithmetic kernel: wrap-around indexing, pair numbering, Fermat parameters.

Everything downstream works with element degrees k (the exponent of z^k on the
unit circle) and pair numbers min(k, n-k).  All indices are 1-based to mirror
the published derivations.
"""

from dataclasses import dataclass

from .errors import UsageError

KNOWN_FERMAT_PRIMES = (3, 5, 17, 257, 65537)


class InvalidN(UsageError):
    """n is not one of the Fermat primes 3, 5, 17, 257 and 65537."""


def rho(k: int, m: int) -> int:
    """Wrap-around remainder: m when m divides k, else k mod m.  Result in [1, m]."""
    if k <= 0 or m <= 0:
        raise ValueError(f"rho requires positive arguments, got k={k}, m={m}")
    r = k % m
    return m if r == 0 else r


def pair_of(e: int, n: int) -> int:
    """Pair number of the element degree e: min(e, n-e)."""
    if not 1 <= e <= n - 1:
        raise ValueError(f"element degree {e} out of range [1, {n - 1}]")
    return min(e, n - e)


@dataclass(frozen=True)
class FermatParams:
    """Derived constants for a Fermat prime n = 2^(2^nu) + 1.

    ng is the number of invariant sets, npairs the number of inverse pairs.
    It always holds ng * orbit_len = n - 1 and npairs = ng * 2^nu.
    """

    nu: int
    n: int
    ng: int
    npairs: int
    orbit_len: int

    @classmethod
    def from_n(cls, n: int) -> "FermatParams":
        """Validate n and derive the constants.

        n must be one of the Fermat primes up to 65537.  Only the shape
        2^(2^nu) + 1 is checked: the five numbers of that shape up to 65537
        are all prime, and every larger Fermat number that has been tested is
        composite, so larger n are refused.
        """
        if n < 3:
            raise InvalidN(f"n={n} is too small")
        nu = 0
        while (1 << (1 << nu)) + 1 < n:
            nu += 1
        if (1 << (1 << nu)) + 1 != n:
            raise InvalidN(f"n={n} is not of the form 2^(2^nu) + 1")
        if n > KNOWN_FERMAT_PRIMES[-1]:
            raise InvalidN(f"n={n} exceeds the tested range (Fermat primes up to 65537)")
        orbit_len = 1 << (nu + 1)
        ng = (n - 1) // orbit_len
        return cls(nu=nu, n=n, ng=ng, npairs=(n - 1) // 2, orbit_len=orbit_len)
