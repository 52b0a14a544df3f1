import re
import tracemalloc
from dataclasses import replace
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngontower import oracle
from ngontower.invariant_sets import (
    LinearCombo,
    build_invariant_sets,
    f_part,
    g_part,
    part_members,
    split_children,
)
from ngontower.oracle import Oracle, OracleMismatch
from ngontower.residues import FermatParams
from ngontower.tower import build_schedule
from ngontower.verify import oracle_check_node, oracle_check_tower

from oracle_helpers import (
    NotSetUniform,
    decompose_into_sets,
    in_pairs,
    prime_below_2_31,
    pv_s,
    pv_zero,
    terms_of,
)
from pair_reference import (
    PeriodVector,
    equal_as_numbers,
    expand_doubled,
    pair_product,
    part_pairs,
    pv_from_pairs,
    pv_mul,
    pv_of_part,
)


def pv(pairs, params, constant=0):
    return pv_from_pairs(pairs, params, constant)


def test_pv_from_pairs(params17, table17):
    v = pv([1], params17)
    assert v.constant == 0 and list(v.coeffs[1:]) == [1, 0, 0, 0, 0, 0, 0, 0]
    g1 = pv(table17.sets[0], params17)
    assert list(g1.coeffs[1:]) == [1, 1, 0, 1, 0, 0, 0, 1]
    assert pv([], params17) == pv_zero(params17)
    with pytest.raises(ValueError):
        pv([9], params17)


def test_pair_product_examples():
    v = pair_product(1, 4, 17)
    assert v.constant == 0 and v.coeffs[3] == 1 and v.coeffs[5] == 1
    v = pair_product(1, 1, 17)
    assert v.constant == 2 and v.coeffs[2] == 1 and v.coeffs.sum() == 1
    v = pair_product(1, 256, 65537)
    assert v.constant == 0 and v.coeffs[255] == 1 and v.coeffs[257] == 1


def test_pv_mul_17_set_products(params17, table17):
    g1 = pv(table17.sets[0], params17)
    g2 = pv(table17.sets[1], params17)
    prod = pv_mul(g1, g2)
    assert prod == pv_s(params17).scaled(4)
    p1 = pv_mul(pv([1, 4], params17), pv([2, 8], params17))
    assert p1 == pv_s(params17)


def test_pv_mul_g1_squared_257(params257, table257):
    g1 = pv(table257.sets[0], params257)
    comb = decompose_into_sets(pv_mul(g1, g1), table257)
    assert comb.constant == 16
    assert comb.terms() == [(1, 3), (2, 4), (3, 2), (6, 2), (8, 2), (9, 2)]


def test_constants_distribute(params17):
    a = pv([1, 2], params17, constant=3)
    b = pv([4], params17, constant=-2)
    direct = pv_mul(a, b)
    expanded = (
        pv_mul(pv([1, 2], params17), pv([4], params17))
        + pv([4], params17).scaled(3)
        + pv([1, 2], params17).scaled(-2)
    )
    expanded = PeriodVector(17, expanded.constant - 6, expanded.coeffs)
    assert direct == expanded


def test_sum_identity_pairwise(params17):
    # p_k * S + p_k has every pair coefficient 2 and constant 2.
    s = pv_s(params17)
    for k in range(1, 9):
        pk = pv([k], params17)
        lhs = pv_mul(pk, s) + pk
        assert lhs.constant == 2
        assert np.array_equal(lhs.coeffs[1:], np.full(8, 2, dtype=np.int64))


def test_sum_identity_sampled_257(params257):
    s = pv_s(params257)
    for k in (1, 7, 64, 128):
        lhs = pv_mul(pv([k], params257), s) + pv([k], params257)
        assert lhs.constant == 2
        assert np.array_equal(lhs.coeffs[1:], np.full(128, 2, dtype=np.int64))


def test_commutative_exhaustive_17(params17):
    for k in range(1, 9):
        for m in range(1, 9):
            assert pv_mul(pv([k], params17), pv([m], params17)) == pv_mul(
                pv([m], params17), pv([k], params17)
            )


def test_associative_exhaustive_17(params17):
    vecs = [pv([k], params17) for k in range(1, 9)]
    for a in vecs:
        for b in vecs:
            ab = pv_mul(a, b)
            for c in vecs:
                assert pv_mul(ab, c) == pv_mul(a, pv_mul(b, c))


@settings(max_examples=25, deadline=None)
@given(a=st.lists(st.integers(1, 128), min_size=1, max_size=6),
       b=st.lists(st.integers(1, 128), min_size=1, max_size=6),
       c=st.lists(st.integers(1, 128), min_size=1, max_size=6))
def test_associative_random_257(params257, a, b, c):
    va, vb, vc = (pv(x, params257) for x in (a, b, c))
    assert pv_mul(pv_mul(va, vb), vc) == pv_mul(va, pv_mul(vb, vc))


def test_decompose_single_pair_not_uniform(params17, table17):
    with pytest.raises(NotSetUniform):
        decompose_into_sets(pv([1], params17), table17)


def test_decompose_g1g5_257(params257, table257):
    g1 = pv(table257.sets[0], params257)
    g5 = pv(table257.sets[4], params257)
    comb = decompose_into_sets(pv_mul(g1, g5), table257)
    assert comb.constant == 0
    assert comb.terms() == [
        (2, 2), (3, 1), (4, 1), (6, 1), (7, 2), (8, 2), (9, 1),
        (10, 1), (11, 1), (13, 1), (14, 1), (16, 2),
    ]


def test_big_coefficients_stay_exact(params17):
    # The reference multiplies over Python integers: 2^80 stays exact.
    big = 1 << 40
    scaled = pv_s(params17).scaled(big)
    prod = pv_mul(scaled, scaled)
    small = pv_mul(pv_s(params17), pv_s(params17))
    assert prod.constant == big * big * small.constant
    assert list(prod.coeffs[1:]) == [big * big * int(c) for c in small.coeffs[1:]]


def vector(n, constant, terms):
    coeffs = np.zeros((n - 1) // 2 + 1, dtype=np.int64)
    for k, c in terms.items():
        coeffs[k] = c
    return PeriodVector(n, constant, coeffs)


@st.composite
def vector_pairs(draw):
    """Two vectors mod 17 or 257, each sparse or dense, with signed
    coefficients and constants."""
    n = draw(st.sampled_from([17, 257]))
    half = (n - 1) // 2
    coeff = st.integers(-1000, 1000)
    sparse = st.dictionaries(st.integers(1, half), coeff, max_size=6)
    dense = st.lists(coeff, min_size=half, max_size=half).map(
        lambda cs: dict(enumerate(cs, start=1))
    )
    return tuple(
        vector(n, draw(coeff), draw(st.one_of(sparse, dense))) for _ in range(2)
    )


def two_pair_reference(a, b):
    """a * b as a sum of pair_product terms, constants distributed by hand."""
    acc = PeriodVector(a.n, a.constant * b.constant, a.constant * b.coeffs + b.constant * a.coeffs)
    for k in a.nonzero_pairs():
        for m in b.nonzero_pairs():
            acc = acc + pair_product(int(k), int(m), a.n).scaled(int(a.coeffs[k] * b.coeffs[m]))
    return acc


@settings(max_examples=40, deadline=None)
@given(ab=vector_pairs())
def test_reference_product_is_the_two_pair_sum(ab):
    a, b = ab
    assert pv_mul(a, b) == two_pair_reference(a, b)


@pytest.mark.parametrize("n", [5, 17, 257])
def test_halves_of_a_period_are_its_two_cosets(n):
    params = FermatParams.from_n(n)
    table = build_invariant_sets(params)
    o = Oracle(table)
    for node in build_schedule(params, table, "full").nodes:
        d, r = o.place(node.splits)
        assert {o.place(node.left), o.place(node.right)} == {(2 * d, r), (2 * d, r + d)}


def _place_by_pairs(o, part):
    """The per-pair reference: the logs of all the part's pairs, sorted,
    must run r, r + D, r + 2D, .. below h with r < D."""
    h = o.table.params.npairs
    logs = sorted(o.logs[p] for p in part_pairs(part, o.table))
    index = h // len(logs)
    return (index, logs[0]) if h % len(logs) == 0 and logs == list(range(logs[0], h, index)) else None


@pytest.mark.parametrize(
    "n, kind, factor",
    [(17, "full", 3), (257, "full", 3), (65537, "pruned", 3), (65537, "pruned", 5)],
    ids=["17-full", "257-full", "65537-pruned", "65537-pruned-factor-5"],
)
def test_set_by_set_places_are_the_per_pair_places(n, kind, factor):
    params = FermatParams.from_n(n)
    table = build_invariant_sets(params, factor)
    o = Oracle(table)
    parts = {p for node in build_schedule(params, table, kind).nodes
             for p in (node.splits, node.left, *node.product_expr.referenced_parts())}
    assert any(p.kind == "F" for p in parts)
    assert {p: o.place(p) for p in parts} == {p: _place_by_pairs(o, p) for p in parts}


_FULL_SCHEDULES = {}


def _full_schedule(n):
    if n not in _FULL_SCHEDULES:
        params = FermatParams.from_n(n)
        table = build_invariant_sets(params)
        _FULL_SCHEDULES[n] = table, build_schedule(params, table, "full").nodes
    return _FULL_SCHEDULES[n]


@st.composite
def identities(draw):
    """A node of a full schedule (n <= 257) whose expression gains terms
    that sum to zero -- c*(X + Y - P) for the halves X, Y of P, and
    c*(S + 1) -- and, half the time, one term that need not."""
    table, nodes = _full_schedule(draw(st.sampled_from([5, 17, 257])))
    node = draw(st.sampled_from(nodes))
    coeff = st.integers(-50, 50)
    linear, squares = list(node.product_expr.linear), list(node.product_expr.squares)
    for split in draw(st.lists(st.sampled_from(nodes), max_size=3)):
        c = draw(coeff)
        linear += [(c, split.left), (c, split.right), (-c, split.splits)]
    c = draw(coeff)
    linear.append((c, f_part(1, 1)))
    constant = node.product_expr.constant + c
    if draw(st.booleans()):
        term = (draw(coeff), draw(st.sampled_from(nodes)).left)
        (squares if draw(st.booleans()) else linear).append(term)
    expr = LinearCombo(constant, tuple(linear), tuple(squares))
    return table, replace(node, product_expr=expr)


@settings(max_examples=60, deadline=None)
@given(case=identities())
def test_oracle_accepts_iff_the_reference_expansion_is_equal(case):
    table, node = case
    lhs = pv_mul(pv_of_part(node.left, table), pv_of_part(node.right, table)).scaled(2)
    equal = equal_as_numbers(lhs, expand_doubled(node.product_expr, table))
    try:
        oracle_check_node(node, table)
    except OracleMismatch:
        assert not equal
    else:
        assert equal


def test_oracle_matches_the_reference_on_a_65537_node(params65537, table65537):
    nodes = build_schedule(params65537, table65537, "pruned").nodes
    o = Oracle(table65537)
    node = next(x for x in nodes if o.place(x.left)[0] == 256)  # 128 pairs a half
    o.check(node)
    lhs = pv_mul(pv_of_part(node.left, table65537), pv_of_part(node.right, table65537)).scaled(2)
    rhs = expand_doubled(node.product_expr, table65537)
    assert equal_as_numbers(lhs, rhs)
    # Each side, expanded by the oracle in the basis of the node's finest
    # periods and read back in the pair basis, is the reference's vector.
    expr = node.product_expr
    index = max(o.places[p][0] for p in [node.left, *expr.referenced_parts()])
    assert in_pairs(o, o.expand(0, [], [(2, node.left, node.right)], index), index) == lhs
    assert in_pairs(o, o.expand(expr.constant, *terms_of(expr), index), index) == rhs


def _parts(n):
    """S, every single pair and every part of the full schedule of n."""
    table, nodes = _full_schedule(n)
    per_set = 1 << table.params.nu
    singles = [g_part(k, j, per_set) for k in range(1, table.params.ng + 1) for j in range(1, per_set + 1)]
    parts = {p for x in nodes for p in (x.splits, x.left, x.right)} | set(singles)
    return table, [f_part(1, 1)] + sorted(parts - {f_part(1, 1)}, key=repr)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_the_period_product_is_the_two_pair_product(data):
    # Gauss's product of two periods, a pair of the finer one against every
    # pair of the other, read back in the pair basis, is the two-pair
    # reference's product vector for vector: eta_D(0) is the constant 2h/D.
    table, parts = _parts(data.draw(st.sampled_from([17, 257])))
    x, y = data.draw(st.sampled_from(parts)), data.draw(st.sampled_from(parts))
    o = Oracle(table)
    index = max(o.place(x)[0], o.place(y)[0])
    product = oracle.pv_mul(oracle.pv_of_part(o, x), oracle.pv_of_part(o, y), o.logs)
    assert in_pairs(o, product, index) == pv_mul(pv_of_part(x, table), pv_of_part(y, table))


def test_the_root_product_at_65537(table65537):
    # F(1,2) * F(2,2) = (n - 1)/4 * S: every pair's coefficient is 16,384,
    # and no pair of one half is a pair of the other, so there is no
    # constant.  The square of F(1,2) meets itself once per pair: it is
    # 16,384 - F(1,2), written as 16,384 p_0 = 32,768 and 16,384 S - F(1,2).
    o = Oracle(table65537)
    halves = f_part(1, 2), f_part(2, 2)
    for part in halves:
        o.place(part)
    left, right = (oracle.pv_of_part(o, part) for part in halves)
    s = pv_s(table65537.params)
    assert in_pairs(o, oracle.pv_mul(left, right, o.logs), 2) == s.scaled(16384)
    rest = s.scaled(16384) - pv_of_part(halves[0], table65537)
    assert in_pairs(o, oracle.pv_mul(left, left, o.logs), 2) == PeriodVector(65537, 32768, rest.coeffs)


def test_a_term_swapped_with_its_sibling_is_refused(table257):
    # The sibling of the period (D, r) is (D, r + D/2): equal in trace, so
    # only the coefficients of the periods taken one by one tell them
    # apart.  Every linear term at the expression's finest level is swapped
    # in turn.
    _, nodes = _full_schedule(257)
    sibling = {x.left: x.right for x in nodes} | {x.right: x.left for x in nodes}
    o = Oracle(table257)
    swapped = 0
    for node in nodes:
        expr = node.product_expr
        finest = max((o.place(p)[0] for p in expr.referenced_parts()), default=0)
        for k, (c, part) in enumerate(expr.linear):
            if o.place(part)[0] == finest and part in sibling:
                linear = list(expr.linear)
                linear[k] = (c, sibling[part])
                bad = replace(node, product_expr=replace(expr, linear=tuple(linear)))
                with pytest.raises(OracleMismatch, match=f"^node {node.id}: product of "):
                    oracle_check_node(bad, table257, o)
                swapped += 1
    assert swapped > 50


@pytest.mark.parametrize("fault", [
    "repeated-set", "sets-from-two-cosets", "whole-sets-not-a-coset", "repeated-pair", "mixed-cosets",
])
def test_a_part_that_is_not_a_period_is_refused(fault, table257, monkeypatch):
    # The faults reach the oracle through `part_members`.  Node 3's left
    # half is F(1,8), the sets 1 and 9, whose residues mod ng are 0 and 8;
    # its right half is F(5,8).  Sets 1 and 5 are whole sets, but their
    # residues differ by 4, not by ng/2; F(1,8) and F(2,8) together, the
    # residues 0, 1, 8 and 9, are two cosets of index 8 but no coset of
    # index 4.  Node 10's left half is G1(1,2), four pairs of set 1, and
    # its right half the other four.
    nodes = build_schedule(table257.params, table257, "pruned").nodes
    in_a_set = fault in ("repeated-pair", "mixed-cosets")
    node = nodes[10 if in_a_set else 3]
    assert node.left.kind == ("G" if in_a_set else "F")
    own = part_members(node.left, table257)
    other = part_members(node.right, table257)
    bad = {
        "repeated-set": own[:-1] + own[:1],
        "sets-from-two-cosets": own + tuple(k + 1 for k in own),
        "whole-sets-not-a-coset": own[:-1] + other[:1],
        "repeated-pair": own[:-1] + own[:1],
        "mixed-cosets": own[:-1] + other[:1],
    }[fault]
    monkeypatch.setattr(
        oracle, "part_members", lambda p, table: bad if p == node.left else part_members(p, table)
    )
    label = re.escape(f"node {node.id}: {node.left.label(table257)} is not a Gauss period")
    with pytest.raises(OracleMismatch, match=label):
        oracle_check_node(node, table257)


# The one route of `Oracle.check`: a node whose key no proved node shares
# is checked in full, its two sides expanded over Z in the basis of its
# finest periods; it accepts a true identity and refuses a false one, as
# the two-pair reference decides them.  A node whose key was proved is
# sigma_t of a node checked so, and is accepted at once.


def _full_checks(monkeypatch):
    """The index of each full check `Oracle.check` runs, in order: each is
    one expansion of a node's two sides."""
    calls = []
    expand = Oracle.expand

    def spy(self, constant, linear, products, index):
        calls.append(index)
        return expand(self, constant, linear, products, index)

    monkeypatch.setattr(Oracle, "expand", spy)
    return calls


def _reference_equal(node, table):
    lhs = pv_mul(pv_of_part(node.left, table), pv_of_part(node.right, table)).scaled(2)
    return equal_as_numbers(lhs, expand_doubled(node.product_expr, table))


def _with(node, constant=0, linear=(), squares=()):
    """The node with terms added to its expression."""
    expr = node.product_expr
    return replace(node, product_expr=LinearCombo(
        expr.constant + constant, expr.linear + tuple(linear), expr.squares + tuple(squares)
    ))


def _node257():
    table, nodes = _full_schedule(257)
    return table, next(x for x in nodes if x.product_expr.squares)


# 65537 full is the paper's whole 65537-gon: every split of every level.
@pytest.mark.parametrize("n, kind, nodes, classes", [
    (5, "full", 1, 1), (17, "full", 7, 3), (257, "full", 127, 7),
    (65537, "pruned", 712, 15), (65537, "full", 32767, 15),
])
def test_one_full_check_per_class(n, kind, nodes, classes, monkeypatch):
    # One class per level of the tower: its index is 2, 4, .. up to h.
    params = FermatParams.from_n(n)
    tower = build_schedule(params, build_invariant_sets(params), kind)
    checks = _full_checks(monkeypatch)
    o = Oracle(tower.table)
    for node in tower.nodes:
        oracle_check_node(node, tower.table, o)
    assert len(tower.nodes) == nodes
    assert len(checks) == classes and len(o.proved) == classes
    assert sorted(checks) == [1 << k for k in range(1, classes + 1)]


def test_a_perturbed_class_mate_is_refused(monkeypatch):
    # Once a class's representative has passed, a class-mate changed in its
    # constant, in one coefficient or in one term's offset relative to its
    # left half (the term swapped for its sibling period) has a key of its
    # own: it is checked in full, and refused.
    table, nodes = _full_schedule(257)
    sibling = {x.left: x.right for x in nodes} | {x.right: x.left for x in nodes}
    o = Oracle(table)
    checks = _full_checks(monkeypatch)
    for node in nodes:
        before = len(checks)
        o.check(node)
        mate = len(checks) == before and any(p in sibling for _, p in node.product_expr.linear)
        if mate:
            break
    assert mate and _reference_equal(node, table)
    expr = node.product_expr
    k, (c, part) = next((k, t) for k, t in enumerate(expr.linear) if t[1] in sibling)
    linear = list(expr.linear)
    linear[k] = (c, sibling[part])
    scaled = list(expr.linear)
    scaled[k] = (c + 1, part)
    for bad in (
        _with(node, constant=1),
        replace(node, product_expr=replace(expr, linear=tuple(scaled))),
        replace(node, product_expr=replace(expr, linear=tuple(linear))),
    ):
        # A refused key is not kept: the same node is refused again.
        for _ in range(2):
            before = len(checks)
            with pytest.raises(OracleMismatch, match=f"^node {node.id}: product of .* differs"):
                o.check(bad)
            assert len(checks) == before + 1
        assert not _reference_equal(bad, table)
    before = len(checks)
    o.check(node)
    assert len(checks) == before


@pytest.mark.parametrize("halves", ["square", "parent-and-half"])
def test_halves_placed_otherwise_are_expanded(halves, monkeypatch):
    # 2 * P * P = 2 P^2, and 2 * S * X = -2 X (S = -1): true identities whose
    # halves are not two sibling periods, but one period twice, or two
    # periods of unequal index.
    table, node = _node257()
    part = node.left
    if halves == "square":
        true = replace(node, right=part, product_expr=LinearCombo(0, (), ((2, part),)))
    else:
        true = replace(node, left=f_part(1, 1), right=part, product_expr=LinearCombo(0, ((-2, part),), ()))
    checks = _full_checks(monkeypatch)
    oracle_check_node(true, table)
    assert len(checks) == 1 and _reference_equal(true, table)

    checks.clear()
    bad = _with(true, constant=1)
    with pytest.raises(OracleMismatch, match=f"^node {node.id}: product of .* differs"):
        oracle_check_node(bad, table)
    assert len(checks) == 1
    assert not _reference_equal(bad, table)


def test_huge_coefficients_are_exact(monkeypatch):
    # c * (S + 1) = 0 with c near 2^30 is accepted.  The constant moved by a
    # prime l = 1 (mod n) near 2^31 (c - l in place of c), which a check
    # modulo l could not see, is refused: delta is l, so every coefficient
    # of its expansion differs from its constant.
    table, node = _node257()
    ell = prime_below_2_31(table.params.n)
    c = ell // 2
    true = _with(node, constant=c, linear=[(c, f_part(1, 1))])
    bad = _with(node, constant=c - ell, linear=[(c, f_part(1, 1))])
    checks = _full_checks(monkeypatch)
    oracle_check_node(true, table)
    assert len(checks) == 1 and _reference_equal(true, table)

    checks.clear()
    with pytest.raises(OracleMismatch, match=r"in (\d+) of \1 period coefficients$"):
        oracle_check_node(bad, table)
    assert len(checks) == 1
    assert not _reference_equal(bad, table)


def _moved(node, kind, k, by):
    """The node with the coefficient of its k-th linear or squared term moved."""
    expr = node.product_expr
    terms = list(getattr(expr, kind))
    terms[k] = (terms[k][0] + by, terms[k][1])
    return replace(node, product_expr=replace(expr, **{kind: tuple(terms)}))


def _classes(table, nodes):
    """The first node of each class, in schedule order."""
    o, firsts = Oracle(table), []
    for node in nodes:
        proved = len(o.proved)
        o.check(node)
        if len(o.proved) > proved:
            firsts.append(node)
    return o, firsts


@pytest.mark.parametrize("n, kind", [(5, "full"), (17, "full"), (257, "full"), (65537, "pruned")])
def test_both_methods_decide_every_class_alike(n, kind, monkeypatch):
    # The oracle's expansion in periods and the two-pair reference decide
    # every class representative alike.  Each, checked in full, is accepted;
    # copies with the constant +1, the first linear or squared coefficient
    # moved, or the first term that has a sibling swapped for it are each
    # refused by a full check of their own.  At 65537 the reference leaves
    # out the classes of index below 64, whose halves' products take 1.1e6
    # to 2.7e8 pair products.
    if kind == "full":
        table, nodes = _full_schedule(n)
    else:
        params = FermatParams.from_n(n)
        table = build_invariant_sets(params)
        nodes = build_schedule(params, table, kind).nodes
    sibling = {x.left: x.right for x in nodes} | {x.right: x.left for x in nodes}
    o, representatives = _classes(table, nodes)
    checks = _full_checks(monkeypatch)
    fresh = Oracle(table)
    swapped = 0
    for node in representatives:
        expr = node.product_expr
        copies = [_with(node, constant=1)]
        copies += [_moved(node, "linear", 0, 1)] if expr.linear else []
        copies += [_moved(node, "squares", 0, -1)] if expr.squares else []
        k = next((k for k, (_, part) in enumerate(expr.linear) if part in sibling), None)
        if k is not None:
            linear = list(expr.linear)
            linear[k] = (linear[k][0], sibling[linear[k][1]])
            copies.append(replace(node, product_expr=replace(expr, linear=tuple(linear))))
            swapped += 1
        checks.clear()
        fresh.check(node)
        assert len(checks) == 1
        for bad in copies:
            checks.clear()
            with pytest.raises(OracleMismatch, match=f"^node {node.id}: product of .* differs"):
                fresh.check(bad)
            assert len(checks) == 1
        if not (n == 65537 and o.places[node.left][0] < 64):
            assert _reference_equal(node, table)
            assert not any(_reference_equal(bad, table) for bad in copies)
    assert (len(representatives), swapped) == {5: (1, 0), 17: (3, 2), 257: (7, 5), 65537: (15, 13)}[n]


@pytest.mark.parametrize("n", [17, 65537])
def test_a_difference_on_few_pairs_is_refused(n):
    # 2 * p_a * p_a = 2 p_2a + 4, claimed as 2: the difference 2 (p_2a + 1)
    # is not 0, yet the one coefficient it touches, of the period of index h
    # that is p_2a, equals its constant.  Only the h - 1 it never touches,
    # 0 against 2, tell it from 0.
    params = FermatParams.from_n(n)
    table = build_invariant_sets(params)
    node = build_schedule(params, table, "pruned").nodes[0]
    pair = g_part(1, 1, 1 << params.nu)
    bad = replace(node, left=pair, right=pair, product_expr=LinearCombo(2, (), ()))
    h = params.npairs
    refusal = f"^node {node.id}: product of .* in {h - 1} of {h} period coefficients$"
    with pytest.raises(OracleMismatch, match=refusal):
        oracle_check_node(bad, table)


def test_hostile_shapes_are_decided_in_bounded_time(params65537, table65537):
    # Two true identities at n = 65537 with costly shapes.  2 * P * P = 2 P^2
    # with P = F(1, 2): pair by pair, its halves alone take 2.7e8 pair
    # products; as periods, 16,384 pair steps.  The class of single-pair
    # halves (index 32,768) padded with 6,144 terms c * (X + Y - P), X and Y
    # the halves of each G_k(1, 8): each term spreads over one or two of
    # the 32,768 coefficients.  Each, and each with its constant moved, is
    # decided within 2 s.
    nodes = build_schedule(params65537, table65537, "pruned").nodes
    node = next(x for x in nodes if x.left.is_single_pair(params65537))
    big = f_part(1, 2)
    square = replace(node, left=big, right=big, product_expr=LinearCombo(0, (), ((2, big),)))
    padding = []
    for k in range(1, params65537.ng + 1):
        part = g_part(k, 1, 8)
        x, y = split_children(part, table65537)
        c = k % 7 - 3 or 5
        padding += [(c, x), (c, y), (-c, part)]
    padded = _with(node, linear=padding)
    for shape in (square, padded):
        for bad in (False, True):
            start = perf_counter()
            if bad:
                with pytest.raises(OracleMismatch, match=f"^node {node.id}: product of .* differs"):
                    oracle_check_node(_with(shape, constant=1), table65537)
            else:
                oracle_check_node(shape, table65537)
            assert perf_counter() - start < 2.0


def test_the_oracle_pass_holds_its_tables_and_nonzero_coefficients(params65537, table65537):
    # Above the pruned 65537 schedule the pass holds its tables (the pairs'
    # elements and logs, the places and keys) and, while a class is proved,
    # the nonzero coefficients of its expansion: 0.88 MB measured, under a
    # bound that leaves 25% for other Python versions.
    tower = build_schedule(params65537, table65537, "pruned")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert oracle_check_tower(tower) == 712
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1_100_000, peak
