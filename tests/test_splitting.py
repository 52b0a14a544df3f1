import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngontower.invariant_sets import LinearCombo, f_part, g_part, part_members, split_children
from ngontower.oracle import Oracle
from ngontower.period_algebra import set_product
from ngontower.residues import rho
from ngontower.splitting import f_split_product, g_split_product, mu_groups, mu_table, pr_terms
from ngontower.tower import QuadraticNode, build_schedule
from ngontower.verify import oracle_check_node

from oracle_helpers import in_pairs, pv_s, same_expression, terms_of
from pair_reference import equal_as_numbers, expand_doubled, part_pairs, pv_mul, pv_of_part
from paper_checks import f_split_product_squares


def test_part_members_examples(table257, table65537):
    assert part_members(f_part(1, 4), table257) == (1, 5, 9, 13)
    assert part_members(g_part(1, 1, 2), table65537) == (
        1, 4, 16, 64, 256, 1024, 4096, 16384,
    )
    assert part_members(g_part(1, 1, 16), table65537) == (1,)
    assert part_members(g_part(1, 1, 8), table257) == (1,)


def test_part_members_rejects_bad_parts(table257):
    with pytest.raises(ValueError):
        part_members(f_part(5, 4), table257)
    with pytest.raises(ValueError):
        part_members(f_part(1, 3), table257)
    with pytest.raises(ValueError):
        part_members(g_part(1, 3, 2), table257)


def test_g_part_growth_factor(table65537):
    # Successive members grow by the factor 2^(2^m) mod n.
    n = 65537
    for m in (1, 2):
        members = part_members(g_part(1, 1, 1 << m), table65537)
        factor = pow(2, 1 << m, n)
        for a, b in zip(members, members[1:]):
            assert b == min(a * factor % n, n - a * factor % n)


def test_split_children(table257):
    assert split_children(f_part(1, 2), table257) == (f_part(1, 4), f_part(3, 4))
    assert split_children(g_part(9, 1, 2), table257) == (g_part(9, 1, 4), g_part(9, 3, 4))


def test_mu_tables_257(table257):
    assert mu_table(0, table257) == (64,)
    assert mu_table(1, table257) == (16, 16)
    assert mu_table(2, table257) == (2, 5, 4, 5)
    assert mu_table(3, table257) == (2, 0, 2, 0, 1, 2, 1, 0)


def test_mu_tables_65537(table65537):
    assert mu_table(2, table65537) == (992, 1040, 1024, 1040)
    assert mu_table(3, table65537) == (284, 237, 272, 237, 256, 269, 256, 237)
    assert mu_table(4, table65537) == (
        80, 62, 60, 64, 57, 60, 61, 60, 68, 64, 64, 58, 65, 70, 61, 70,
    )


@pytest.mark.parametrize(
    "table_name,levels",
    [("table17", 1), ("table257", 4), ("table65537", 11)],
)
def test_mu_conservation(table_name, levels, request):
    # sum_k mu(k, 2^m) equals (n-1) / 2^(m+2) at every level.
    table = request.getfixturevalue(table_name)
    n = table.params.n
    for m in range(levels):
        assert sum(mu_table(m, table)) == (n - 1) >> (m + 2)


def _mu_from_set_products(m, table):
    """mu(., 2^m) tallied from whole set products, each classified set
    weighted by its coefficient: the row of products G_1 * G_{1+2^m+t*2^(m+1)},
    or at the bottom level the one product G_1 * G_{1+2^m}, uniform on each
    part."""
    ng, stride = table.params.ng, 1 << m
    if 2 * stride == ng:
        return set_product(1, 1 + stride, table).coeffs[:stride]
    mu = [0] * stride
    for t in range(ng // (4 * stride)):
        for l, c in set_product(1, 1 + stride + t * 2 * stride, table).terms():
            mu[rho(l, stride) - 1] += c
    return tuple(mu)


@pytest.mark.parametrize("table_name", ["table17", "table257", "table65537"])
def test_mu_rows_fold_the_set_products(table_name, request):
    table = request.getfixturevalue(table_name)
    levels = table.params.ng.bit_length() - 1
    assert levels >= 1
    for m in range(levels):
        assert mu_table(m, table) == _mu_from_set_products(m, table), m


def test_k_groups_65537(table65537):
    groups = mu_groups(6, table65537)
    assert groups[10] == (26,)
    assert groups[9 if 9 in groups else 10]  # mu=9 never occurs at this level
    assert 9 not in groups
    assert mu_groups(8, table65537)[3] == (83,)
    assert mu_groups(9, table65537)[2] == (68, 86, 88, 135, 175, 451)


def test_f_split_product_examples(table17, table257, table65537):
    # Coefficients count halves: -8 is the constant -4.
    combo = f_split_product(1, 0, table17)
    assert combo.constant == -8 and not combo.linear and not combo.squares

    combo = f_split_product(1, 0, table65537)
    assert combo.constant == -32768 and not combo.linear

    combo = f_split_product(1, 2, table257)
    assert combo.constant == -10
    assert {(p.offset, c) for c, p in combo.linear} == {(1, -6), (3, -2)}

    combo = f_split_product(1, 2, table65537)
    assert combo.constant == -2080
    assert {(p.offset, c) for c, p in combo.linear} == {(1, -96), (3, -32)}


def test_f_split_closed_forms_via_oracle(table17, table257):
    # Product of the two halves of S is -(n-1)/4 * S exactly.
    for table in (table17, table257):
        params = table.params
        left = pv_of_part(f_part(1, 2), table)
        right = pv_of_part(f_part(2, 2), table)
        assert pv_mul(left, right) == pv_s(params).scaled((params.n - 1) // 4)


def test_f_split_oracle_equality_all_levels_257(table257):
    for m in range(4):
        for j in range(1, (1 << m) + 1):
            parent = f_part(j, 1 << m)
            left, right = split_children(parent, table257)
            lhs = pv_mul(pv_of_part(left, table257), pv_of_part(right, table257)).scaled(2)
            rhs = expand_doubled(f_split_product(j, m, table257), table257)
            # Folding uses S = -1, so compare as numbers, not as vectors.
            assert equal_as_numbers(lhs, rhs)


def test_f_split_squares_method_matches_exactly(table17, table257):
    # Both derivations of the same product agree as period-vector identities.
    for table, levels in ((table17, 1), (table257, 4)):
        for m in range(levels):
            for j in range(1, (1 << m) + 1):
                a = expand_doubled(f_split_product(j, m, table), table)
                b = expand_doubled(f_split_product_squares(j, m, table), table)
                assert equal_as_numbers(a, b)


def test_f_split_squares_sampled_65537(table65537):
    # Both derivations agree as numbers: their difference, expanded by the
    # oracle in the basis of the periods of their finest part, is 0.
    oracle = Oracle(table65537)
    for j, m in ((1, 0), (1, 2), (3, 3)):
        a = f_split_product(j, m, table65537)
        assert same_expression(oracle, a, f_split_product_squares(j, m, table65537))
        # A coefficient moved by one is told apart.
        c, p = a.linear[0] if a.linear else (0, f_part(1, 1))
        moved = LinearCombo(a.constant, ((c + 2, p),) + a.linear[1:], a.squares)
        assert not same_expression(oracle, moved, f_split_product_squares(j, m, table65537))


def test_pr_terms_examples(table257, table65537):
    # Coefficients count halves: 4 is the coefficient 2, 2 the coefficient 1.
    pm, pl = pr_terms(0, table257)
    assert [(c, p.set_index, p.offset, p.stride) for c, p in pm.linear] == [(4, 9, 1, 1)]
    assert sorted((p.set_index, c) for c, p in pl.linear) == [(2, 2), (8, 2)]

    pm, pl = pr_terms(1, table65537)
    assert [(c, p.set_index, p.offset, p.stride) for c, p in pm.linear] == [(4, 1025, 2, 2)]
    assert sorted((p.set_index, p.offset) for c, p in pl.linear) == [(1117, 2), (1957, 2)]

    pm, pl = pr_terms(0, table65537)
    assert [(p.set_index, c) for c, p in pm.linear] == [(1025, 4)]
    assert sorted(p.set_index for _, p in pl.linear) == [2, 1117, 1266, 1900, 1956, 1957]


def test_g_split_examples_257(table257):
    # Coefficients count halves: -16 is -8, 1 is 1/2, -1 is -1/2, -2 is -1.
    combo = g_split_product(1, 1, 0, table257)
    assert combo.constant == -16
    assert [(c, p.set_index, p.offset) for c, p in combo.squares] == [(1, 1, 1)]
    linear = {(p.set_index, p.offset, p.stride): c for c, p in combo.linear}
    assert linear == {
        (1, 1, 1): -1,
        (2, 1, 1): -2,
        (8, 1, 1): -2,
        (9, 1, 1): -2,
    }


def test_g_split_examples_65537(table65537):
    # Coefficients count halves: -4 is the constant -2, -32 is -16.
    combo = g_split_product(1, 1, 3, table65537)
    assert combo.constant == -4
    assert [(p.set_index, p.offset, p.stride) for _, p in combo.linear] == [(1, 2, 8)]

    combo = g_split_product(1, 1, 0, table65537)
    linear = {p.set_index for _, p in combo.linear if p.set_index != 1}
    assert combo.constant == -32
    assert linear == {2, 1025, 1117, 1266, 1900, 1956, 1957}


def test_g_split_oracle_equality_all_257(table257):
    for k in range(1, 17):
        for m in range(3):
            for s in range(1, (1 << m) + 1):
                parent = g_part(k, s, 1 << m)
                left, right = split_children(parent, table257)
                lhs = pv_mul(pv_of_part(left, table257), pv_of_part(right, table257)).scaled(2)
                rhs = expand_doubled(g_split_product(k, s, m, table257), table257)
                assert lhs == rhs


def test_g_split_oracle_equality_sampled_65537(table65537):
    import random

    rng = random.Random(12)
    oracle = Oracle(table65537)
    for _ in range(50):
        m = rng.randint(0, 3)
        k = rng.randint(1, 2048)
        s = rng.randint(1, 1 << m)
        parent = g_part(k, s, 1 << m)
        left, right = split_children(parent, table65537)
        combo = g_split_product(k, s, m, table65537)
        oracle_check_node(QuadraticNode(0, 0, parent, left, right, None, combo), table65537, oracle)
        # Equal as vectors too: no uniform part folded into the constant.
        lhs = pv_mul(pv_of_part(left, table65537), pv_of_part(right, table65537)).scaled(2)
        assert lhs == expand_doubled(combo, table65537)


@pytest.mark.parametrize("table_name,m", [("table257", 1), ("table257", 2), ("table65537", 2)])
def test_full_row_is_twice_half_row(table_name, m, request):
    # Classifying the whole row of sibling products tallies exactly twice the
    # half row (the summands symmetric to the middle classify identically).
    table = request.getfixturevalue(table_name)
    ng = table.params.ng
    stride = 1 << m
    full = [0] * stride
    for t in range(ng // (2 * stride)):
        comb = set_product(1, 1 + stride + t * 2 * stride, table)
        for l, c in comb.terms():
            full[rho(l, stride) - 1] += c
    assert tuple(v // 2 for v in full) == mu_table(m, table)
    assert all(v % 2 == 0 for v in full)


def test_part_pairs_f_vs_g(table257):
    f = part_pairs(f_part(1, 16), table257)
    g = part_pairs(g_part(1, 1, 1), table257)
    assert set(f) == set(g) == set(table257.sets[0])


_SCHEDULE_PARTS = {}


def _schedule_parts(table):
    """Every part a full schedule splits or produces, overlapping ones included."""
    n = table.params.n
    if n not in _SCHEDULE_PARTS:
        nodes = build_schedule(table.params, table, kind="full").nodes
        _SCHEDULE_PARTS[n] = sorted(
            {p for node in nodes for p in (node.splits, node.left, node.right)}, key=repr
        )
    return _SCHEDULE_PARTS[n]


@pytest.mark.parametrize("n", [17, 257])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_combo_expansion_matches_per_term_sum(n, data, table17, table257):
    table = {17: table17, 257: table257}[n]
    # Halves: -2000..2000 spans the coefficients -1000..1000 in steps of 1/2.
    half = st.integers(-2000, 2000)
    term = st.tuples(half, st.sampled_from(_schedule_parts(table)))
    combo = LinearCombo(
        constant=data.draw(half),
        linear=tuple(data.draw(st.lists(term, max_size=8))),
        squares=tuple(data.draw(st.lists(term, max_size=3))),
    )
    # The oracle's expansion in the basis of the periods of the combo's
    # finest part, read back in the pair basis, is the per-term reference
    # sum, vector for vector.
    oracle = Oracle(table)
    index = max((oracle.place(p)[0] for p in combo.referenced_parts()), default=1)
    expanded = oracle.expand(combo.constant, *terms_of(combo), index)
    assert in_pairs(oracle, expanded, index) == expand_doubled(combo, table)


@pytest.mark.parametrize("n", [17, 257])
def test_part_pairs_match_members_of_sets(n, table17, table257):
    table = {17: table17, 257: table257}[n]
    per_set, ng = 1 << table.params.nu, table.params.ng
    for part in _schedule_parts(table):
        if part.kind == "G":
            row = table.sets[part.set_index - 1]
            expected = [row[pos - 1] for pos in range(part.offset, per_set + 1, part.stride)]
        else:
            expected = [p for k in range(part.offset, ng + 1, part.stride) for p in table.sets[k - 1]]
        pairs = part_pairs(part, table)
        assert type(pairs) is tuple and all(type(p) is int for p in pairs)
        assert list(pairs) == expected, part
