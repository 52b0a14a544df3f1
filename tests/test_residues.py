import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ngontower.cli import main
from ngontower.residues import (
    KNOWN_FERMAT_PRIMES,
    FermatParams,
    InvalidN,
    pair_of,
    rho,
)

from paper_checks import doubling_orbit, pair_orbit


def test_rho_examples():
    assert rho(5, 4) == 1
    assert rho(8, 4) == 4
    assert rho(2048, 2048) == 2048


def test_rho_rejects_nonpositive():
    with pytest.raises(ValueError):
        rho(0, 4)
    with pytest.raises(ValueError):
        rho(3, 0)


@given(st.integers(1, 10**6), st.integers(1, 10**4))
def test_rho_periodic(k, m):
    assert rho(k + m, m) == rho(k, m)
    assert 1 <= rho(k, m) <= m


def test_pair_of_examples():
    assert pair_of(16, 17) == 1
    assert pair_of(249, 257) == 8
    assert pair_of(65535, 65537) == 2


def test_pair_of_rejects_out_of_range():
    with pytest.raises(ValueError):
        pair_of(0, 17)
    with pytest.raises(ValueError):
        pair_of(17, 17)


def test_doubling_orbit_examples():
    assert doubling_orbit(1, 17) == (1, 2, 4, 8, 16, 15, 13, 9)
    assert doubling_orbit(3, 17) == (3, 6, 12, 7, 14, 11, 5, 10)
    assert doubling_orbit(1, 257) == (
        1, 2, 4, 8, 16, 32, 64, 128, 256, 255, 253, 249, 241, 225, 193, 129,
    )


@pytest.mark.parametrize("n", [5, 17, 257])
def test_orbit_length_and_inverse_pairing(n):
    params = FermatParams.from_n(n)
    half = params.orbit_len // 2
    for start in range(1, n - 1):
        orbit = doubling_orbit(start, n)
        assert len(orbit) == params.orbit_len
        assert len(set(orbit)) == params.orbit_len
        for m in range(half):
            assert (orbit[m] + orbit[half + m]) % n == 0


@given(st.integers(1, 65536))
def test_orbit_properties_65537(start):
    orbit = doubling_orbit(start, 65537)
    assert len(orbit) == 32
    assert len(set(orbit)) == 32
    for m in range(16):
        assert (orbit[m] + orbit[16 + m]) % 65537 == 0


def test_pair_orbit_examples():
    assert pair_orbit(1, 17) == (1, 2, 4, 8)
    assert pair_orbit(3, 257) == (3, 6, 12, 24, 48, 96, 65, 127)
    assert pair_orbit(1, 5) == (1, 2)


@pytest.mark.parametrize("n", [17, 257, 65537])
@pytest.mark.parametrize("start", [1, 3, 5, 7])
def test_pair_orbit_matches_doubling_orbit(n, start):
    params = FermatParams.from_n(n)
    orbit = doubling_orbit(start, n)
    pairs = pair_orbit(pair_of(start, n), n)
    assert len(pairs) == 1 << params.nu
    assert pairs == tuple(pair_of(e, n) for e in orbit[: 1 << params.nu])


def test_params_known_primes():
    for nu, n in enumerate((3, 5, 17, 257, 65537)):
        p = FermatParams.from_n(n)
        assert p.nu == nu
        assert p.ng * p.orbit_len == n - 1
        assert p.npairs == p.ng * (1 << nu)


def test_params_counts():
    assert FermatParams.from_n(17).ng == 2
    assert FermatParams.from_n(257).ng == 16
    assert FermatParams.from_n(65537).ng == 2048


def test_params_rejects_bad_n():
    for bad in (4, 9, 15, 16, 100, 65536):
        with pytest.raises(InvalidN):
            FermatParams.from_n(bad)


def test_only_the_known_fermat_primes_are_accepted():
    accepted = []
    for n in range(1 << 17):
        try:
            FermatParams.from_n(n)
        except InvalidN:
            continue
        accepted.append(n)
    assert tuple(accepted) == KNOWN_FERMAT_PRIMES


def test_params_large_n_needs_assertion(capsys):
    f5 = (1 << 32) + 1  # composite Fermat number
    with pytest.raises(InvalidN):
        FermatParams.from_n(f5)
    # There is no flag that asserts primality: argument parsing refuses it
    # before any table for n is built.
    start = time.perf_counter()
    assert main(["build", "--n", str(f5), "--assume-fermat-prime"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: build: unknown option --assume-fermat-prime\n"


def test_factor_powers_chain_65537():
    # Pair numbers of the doubled-step set starts in the ordering proof:
    # square repeatedly from 3^16 and reduce to min(x, n-x).
    n = 65537
    expected = (11088, 3668, 19139, 15028, 282, 13987, 8224, 8)
    x = pow(3, 16, n)
    chain = []
    for _ in range(8):
        chain.append(pair_of(x, n))
        x = x * x % n
    assert tuple(chain) == expected
    # Only the last lands back in the degree orbit of 1.
    orbit1 = set(doubling_orbit(1, n))
    assert [pair_of(c, n) in {pair_of(e, n) for e in orbit1} for c in chain] == [
        False, False, False, False, False, False, False, True,
    ]
