import random

import pytest

from ngontower.period_algebra import set_product, set_square
from ngontower.residues import rho

from oracle_helpers import combination_to_pv
from pair_reference import pv_from_pairs, pv_mul
from paper_checks import coeff_sum, shift_combination


def oracle_product(i, j, table):
    params = table.params
    a = pv_from_pairs(table.sets[i - 1], params)
    b = pv_from_pairs(table.sets[j - 1], params)
    return pv_mul(a, b)


def assert_equals_oracle(comb, i, j, table):
    assert combination_to_pv(comb, table) == oracle_product(i, j, table)


def test_golden_g1g5_257(table257):
    comb = set_product(1, 5, table257)
    assert comb.constant == 0
    assert comb.terms() == [
        (2, 2), (3, 1), (4, 1), (6, 1), (7, 2), (8, 2), (9, 1),
        (10, 1), (11, 1), (13, 1), (14, 1), (16, 2),
    ]


def test_golden_g1g9_257(table257):
    comb = set_product(1, 9, table257)
    assert comb.constant == 0
    assert comb.terms() == [
        (1, 2), (3, 2), (5, 1), (6, 2), (7, 1), (9, 2), (11, 2),
        (13, 1), (14, 2), (15, 1),
    ]


def test_golden_squares(table17, table257, table65537):
    comb = set_square(1, table17)
    assert comb.constant == 8 and comb.terms() == [(1, 3), (2, 4)]
    assert_equals_oracle(comb, 1, 1, table17)

    comb = set_square(1, table257)
    assert comb.constant == 16
    assert comb.terms() == [(1, 3), (2, 4), (3, 2), (6, 2), (8, 2), (9, 2)]

    comb = set_square(1, table65537)
    assert comb.constant == 32
    assert comb.terms() == [
        (1, 3), (2, 4), (3, 2), (778, 2), (801, 2), (1025, 2), (1100, 2),
        (1117, 2), (1179, 2), (1264, 2), (1266, 2), (1900, 2), (1956, 2), (1957, 2),
    ]


def test_golden_g1_g1025_65537(table65537):
    comb = set_product(1, 1025, table65537)
    assert comb.constant == 0
    expected_pairs = {
        (1, 2), (1025, 2), (24, 1), (1048, 1), (155, 2), (1179, 2), (185, 1),
        (1209, 1), (309, 1), (1333, 1), (360, 1), (1384, 1), (531, 1), (1555, 1),
        (667, 1), (1691, 1), (719, 1), (1743, 1), (734, 1), (1758, 1), (778, 2),
        (1802, 2), (841, 1), (1865, 1), (946, 1), (1970, 1),
    }
    assert set(comb.terms()) == expected_pairs


def test_17_products(table17):
    comb = set_product(1, 2, table17)
    assert comb.constant == 0 and comb.coeffs == (4, 4)


def test_oracle_equivalence_exhaustive_17(table17):
    for i in (1, 2):
        for j in (1, 2):
            assert_equals_oracle(set_product(i, j, table17), i, j, table17)


def test_oracle_equivalence_all_pairs_257(table257):
    for i in range(1, 17):
        for j in range(i, 17):
            assert_equals_oracle(set_product(i, j, table257), i, j, table257)


def test_oracle_equivalence_sampled_65537(table65537):
    rng = random.Random(65537)
    seen = set()
    while len(seen) < 10:
        i, j = rng.randint(1, 2048), rng.randint(1, 2048)
        if (i, j) in seen:
            continue
        seen.add((i, j))
        assert_equals_oracle(set_product(i, j, table65537), i, j, table65537)


@pytest.mark.parametrize("table_name", ["table17", "table257", "table65537"])
def test_mass_invariants(table_name, request):
    # Different sets: constant 0, coefficients summing to the orbit length;
    # squares: constant = orbit length, coefficients one short of it.
    table = request.getfixturevalue(table_name)
    orbit = table.params.orbit_len
    ng = table.params.ng
    picks = [(1, 2), (1, min(9, ng)), (2, min(5, ng))] if ng > 2 else [(1, 2)]
    for i, j in picks:
        if i == j:
            continue
        comb = set_product(i, j, table)
        assert comb.constant == 0 and coeff_sum(comb) == orbit
    sq = set_square(1, table)
    assert sq.constant == orbit and coeff_sum(sq) == orbit - 1


def test_shift_full_rotation(table257):
    comb = set_product(1, 9, table257)
    assert shift_combination(comb, table257.params.ng, table257) == comb


def test_shift_matches_oracle_257(table257):
    shifted = shift_combination(set_product(1, 9, table257), 4, table257)
    assert shifted == set_product(5, 13, table257)
    assert_equals_oracle(shifted, 5, 13, table257)


def test_shift_square_65537(table65537):
    shifted = shift_combination(set_square(1, table65537), 1024, table65537)
    assert shifted == set_square(1025, table65537)


def test_shift_equivariance_exhaustive_17(table17):
    ng = 2
    for i in (1, 2):
        for j in (1, 2):
            base = set_product(i, j, table17)
            for s in (1, 2, 3):
                assert shift_combination(base, s, table17) == set_product(
                    rho(i + s, ng), rho(j + s, ng), table17
                )


def test_shift_equivariance_random_257(table257):
    rng = random.Random(257)
    ng = 16
    for _ in range(200):
        i, j, s = rng.randint(1, ng), rng.randint(1, ng), rng.randint(1, 3 * ng)
        assert shift_combination(set_product(i, j, table257), s, table257) == set_product(
            rho(i + s, ng), rho(j + s, ng), table257
        )


def test_shift_equivariance_spot_65537(table65537):
    rng = random.Random(99)
    ng = 2048
    for _ in range(20):
        i, j, s = rng.randint(1, ng), rng.randint(1, ng), rng.randint(1, ng)
        assert shift_combination(set_product(i, j, table65537), s, table65537) == set_product(
            rho(i + s, ng), rho(j + s, ng), table65537
        )
