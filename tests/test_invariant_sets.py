from array import array
from itertools import islice

import pytest

from ngontower import reference_tables as ref
from ngontower.errors import VerificationError
from ngontower.invariant_sets import (
    InvalidFactor,
    InvariantSetTable,
    build_invariant_sets,
    check_part,
    g_part,
    locate_pair,
    validate_factor,
)
from ngontower.residues import FermatParams, pair_of

from paper_checks import pair_orbit


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


def test_sets_are_read_only_rows(table257, table65537):
    for table in (table257, table65537):
        sets = table.sets
        assert type(sets) is tuple and all(type(row) is tuple for row in sets)
        assert (len(sets), {len(row) for row in sets}) == (table.params.ng, {1 << table.params.nu})
        assert all(type(p) is int for row in sets for p in row)
        with pytest.raises(TypeError):
            sets[0] = ()
        with pytest.raises(TypeError):
            sets[0][0] = 0
        # The lookups are C-int arrays that invert the rows.
        assert table.set_of.typecode == table.pos_of.typecode == "i"
        assert len(table.set_of) == table.params.npairs + 1
        assert all(
            (table.set_of[p], table.pos_of[p]) == (k, pos)
            for k, row in enumerate(sets, start=1)
            for pos, p in enumerate(row, start=1)
        )


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


def _generates_by_the_doubling_orbit(q, params):
    """The reference rule: q generates all ng set starts iff q^ng lands in
    the degree orbit of 1 while q^(ng/2) does not."""
    n, d, orbit = params.n, 1, set()
    for _ in range(params.orbit_len):
        orbit.add(d)
        d = 2 * d % n
    return pow(q, params.ng, n) in orbit and pow(q, params.ng // 2, n) not in orbit


@pytest.mark.parametrize("n, step", [(17, 1), (257, 1), (65537, 97)])
def test_validate_factor_is_the_doubling_orbit_rule(n, step):
    params = FermatParams.from_n(n)
    qs = sorted({*range(1, n, step), *range(max(1, n - 100), n)})
    assert [validate_factor(q, params) for q in qs] == [_generates_by_the_doubling_orbit(q, params) for q in qs]


@pytest.mark.parametrize("n", [3, 5])
def test_one_set_accepts_every_positive_factor(n):
    # With one invariant set no factor seeds a start: n = 3 builds at its
    # default factor 3, past n - 1, so the rule must accept it.
    params = FermatParams.from_n(n)
    for q in [*range(1, 3 * n), 1 << 70]:
        assert validate_factor(q, params) is True
        assert build_invariant_sets(params, q).factor == q
    for q in (0, -1):
        with pytest.raises(InvalidFactor, match=f"^factor {q} is not positive$"):
            validate_factor(q, params)


@pytest.mark.parametrize("n", [17, 257, 65537])
def test_check_part_refuses_a_g_stride_past_its_set(n):
    # A G part's stride divides the 2^nu pairs of its set, so 2^(nu+1) does not.
    params = FermatParams.from_n(n)
    check_part(g_part(1, 1, 1 << params.nu), params)
    with pytest.raises(ValueError, match="invalid part"):
        check_part(g_part(1, 1, 2 << params.nu), params)


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


def _reference_sets(params, factor):
    """The family pair by pair: set k is `pair_orbit` of the pair of
    factor^(k-1), and the lookup arrays are filled row by row."""
    n, sets, degree = params.n, [], 1
    for _ in range(params.ng):
        sets.append(pair_orbit(pair_of(degree, n), n))
        degree = degree * factor % n
    set_of, pos_of = [0] * (params.npairs + 1), [0] * (params.npairs + 1)
    for k, row in enumerate(sets, start=1):
        for pos, p in enumerate(row, start=1):
            set_of[p], pos_of[p] = k, pos
    return tuple(sets), set_of, pos_of


@pytest.mark.parametrize("n", [3, 5, 17, 257, 65537])
def test_inline_orbit_walk_matches_the_per_pair_reference(n):
    # A table holds its starts until a pair is read; then one walk fills the
    # sets and both lookups, and each set begins at its start.
    params = FermatParams.from_n(n)
    factors = list(islice((q for q in range(1, n) if validate_factor(q, params)), 8))
    assert len(factors) == min(8, n - 1 if params.ng == 1 else (n - 1) // 2)
    for q in factors:
        table = build_invariant_sets(params, factor=q)
        starts = [table.first_pair(k) for k in range(1, params.ng + 1)]
        assert "_walked" not in vars(table)
        assert starts == [row[0] for row in table.sets]
        assert (table.sets, list(table.set_of), list(table.pos_of)) == _reference_sets(params, q)
    if params.ng > 1:
        invalid = next(q for q in range(1, n) if not validate_factor(q, params))
        for q in (invalid, 0, n):
            with pytest.raises(InvalidFactor):
                build_invariant_sets(params, factor=q)


@pytest.mark.parametrize("starts, factor, message", [
    ([1, 2], 3, "pair 2 appears in sets 1 and 2"),
    ([1], 3, r"pairs not covered: \[3, 5, 6, 7\]"),
    ([1, 3], 17, "factor rule does not wrap back to set 1"),
])
def test_the_walk_checks_the_starts_on_first_read(starts, factor, message, params17):
    # `build_invariant_sets` admits only starts that Euler's criterion proves
    # to partition the pairs, so these tables are made by hand: each is
    # refused when its pairs are first read, not when it is made.
    table = InvariantSetTable(params17, factor, array("i", starts))
    assert table.first_pair(1) == 1
    for read in ("sets", "set_of", "pos_of"):
        with pytest.raises(VerificationError, match=message):
            getattr(table, read)
