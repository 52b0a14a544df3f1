import numpy as np
import pytest

from ngontower import reference_tables as ref
from ngontower.invariant_sets import (
    InvalidFactor,
    build_invariant_sets,
    locate_pair,
    validate_factor,
)


def test_17_sets(table17):
    assert table17.sets == ((1, 2, 4, 8), (3, 6, 5, 7))


def test_257_table_matches_published_except_known_misprint(table257):
    for k, (mine, published) in enumerate(zip(table257.sets, ref.SETS_257), start=1):
        if k == 13:
            # Published row ends in 11; doubling 73 forces pair 111.
            assert mine[:7] == published[:7]
            assert mine[7] == 111 and published[7] == 11
        else:
            assert mine == published
    assert ref.diff_sets_table(table257), "the known misprint must be reported"


@pytest.mark.parametrize("n", [17, 257, 65537])
def test_partition_property(n, table17, table257, table65537):
    table = {17: table17, 257: table257, 65537: table65537}[n]
    params = table.params
    seen = set()
    for row in table.sets:
        assert len(row) == 1 << params.nu
        seen.update(row)
    assert seen == set(range(1, params.npairs + 1))


def test_65537_shape(table65537):
    assert len(table65537.sets) == 2048
    assert all(len(row) == 16 for row in table65537.sets)


def test_set_array_is_read_only_sets(table257, table65537):
    for table in (table257, table65537):
        arr = table.set_array
        assert arr.dtype == np.int64
        assert arr.shape == (table.params.ng, 1 << table.params.nu)
        assert arr.tolist() == [list(row) for row in table.sets]
        with pytest.raises(ValueError):
            arr[0, 0] = 0


def test_natural_order_doubling(table257):
    n = table257.params.n
    for row in table257.sets:
        for a, b in zip(row, row[1:]):
            assert b == min(2 * a % n, n - 2 * a % n)


def test_start_pairs_follow_factor_rule(table65537):
    n = table65537.params.n
    for k, row in enumerate(table65537.sets, start=1):
        d = pow(3, k - 1, n)
        assert row[0] == min(d, n - d)


def test_locate_pair_goldens(table257, table65537):
    assert locate_pair(table65537, 15) == (1957, 6)
    assert locate_pair(table65537, 255) == (1025, 4)
    assert locate_pair(table65537, 257) == (1025, 12)
    assert locate_pair(table257, 5) == (8, 2)


def test_locate_pair_total(table257):
    for p in range(1, table257.params.npairs + 1):
        k, m = locate_pair(table257, p)
        assert table257.sets[k - 1][m - 1] == p


def test_validate_factor(params257):
    assert validate_factor(3, params257) is True
    assert validate_factor(2, params257) is False
    assert validate_factor(9, params257) is False
    with pytest.raises(ValueError):
        validate_factor(0, params257)
    with pytest.raises(ValueError):
        validate_factor(257, params257)


def test_invalid_factor_rejected(params257):
    with pytest.raises(InvalidFactor):
        build_invariant_sets(params257, factor=2)


def test_other_valid_factor_same_partition(params257, table257):
    # Any admitted factor reproduces the same partition, renumbered.
    reference = {frozenset(row) for row in table257.sets}
    for q in (6, 12, 27):
        if not validate_factor(q, params257):
            continue
        other = build_invariant_sets(params257, factor=q)
        assert {frozenset(row) for row in other.sets} == reference


def test_valid_factors_are_even_indexed_sets(params257, table257):
    # Factors that work are exactly the degrees living in even-numbered sets.
    n = params257.n
    for q in range(1, n):
        k, _ = locate_pair(table257, min(q, n - q))
        assert validate_factor(q, params257) == (k % 2 == 0)
