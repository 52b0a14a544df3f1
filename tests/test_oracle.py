import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngontower import oracle
from ngontower.invariant_sets import build_invariant_sets
from ngontower.oracle import (
    PeriodVector,
    _l1,
    _mul_direct,
    _mul_fft,
    _pair_mul_bigint,
    pair_product,
    pv_from_pairs,
    pv_mul,
)
from ngontower.residues import FermatParams
from ngontower.tower import build_schedule
from ngontower.verify import oracle_check_tower, pv_of_part

from oracle_helpers import NotSetUniform, decompose_into_sets, pv_s, pv_zero


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
    # Coefficients beyond 2^32 leave the int64 kernels for exact big integers.
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
    coefficients and constants small enough for both fast routes."""
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


def bigint_reference(a, b):
    ai, bi = a.nonzero_pairs(), b.nonzero_pairs()
    const, out = _pair_mul_bigint(a, b, ai, bi, a.n)
    return PeriodVector(
        a.n, const + a.constant * b.constant, out + a.constant * b.coeffs + b.constant * a.coeffs
    )


@settings(max_examples=40, deadline=None)
@given(ab=vector_pairs())
def test_product_routes_agree(ab):
    a, b = ab
    expected = two_pair_reference(a, b)
    assert bigint_reference(a, b) == expected
    ai, bi = a.nonzero_pairs(), b.nonzero_pairs()
    assert _mul_direct(a, b, ai, bi) == expected
    assert _mul_fft(a, b, ai, bi) == expected
    assert pv_mul(a, b) == expected


def test_size_rule_reaches_both_routes(params257, monkeypatch):
    taken = []
    for name in ("_mul_direct", "_mul_fft"):
        route = getattr(oracle, name)
        monkeypatch.setattr(
            oracle, name, lambda *args, route=route, name=name: taken.append(name) or route(*args)
        )
    sparse = pv(range(1, 65), params257)
    dense = pv(range(1, 129), params257, constant=3)
    assert pv_mul(sparse, sparse) == two_pair_reference(sparse, sparse)
    assert pv_mul(dense, dense) == two_pair_reference(dense, dense)
    assert taken == ["_mul_direct", "_mul_fft"]


def test_fft_guard_falls_back_to_bigint(params257):
    # Dense coefficients near 2^40 put |A|_1 |B|_1 far past both guards.
    rng = np.random.default_rng(11)
    big = 1 << 40
    u = vector(257, 5, dict(enumerate(rng.integers(-9, 10, size=128), start=1)))
    v = vector(257, -7, dict(enumerate(rng.integers(-9, 10, size=128), start=1)))
    s = pv_s(params257)
    a, b = s.scaled(big) + u, s.scaled(-big) + v
    ai, bi = a.nonzero_pairs(), b.nonzero_pairs()
    assert _mul_fft(a, b, ai, bi) is None and _mul_direct(a, b, ai, bi) is None

    def wide(x):
        return PeriodVector(x.n, x.constant, x.coeffs.astype(object))

    # Bilinearity gives the exact product from small ones.
    expected = (
        wide(pv_mul(s, s)).scaled(-big * big)
        + wide(pv_mul(s, v)).scaled(big)
        + wide(pv_mul(u, s)).scaled(-big)
        + pv_mul(u, v)
    )
    assert pv_mul(a, b) == expected
    assert pv_mul(a, b) == bigint_reference(a, b)


def test_fft_residual_guard_falls_back(params257, monkeypatch):
    a = pv(range(1, 129), params257, constant=1)
    b = pv(range(2, 129, 3), params257)
    expected = two_pair_reference(a, b)
    ai, bi = a.nonzero_pairs(), b.nonzero_pairs()
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args: irfft(*args) + 0.3)
    assert _mul_fft(a, b, ai, bi) is None
    assert pv_mul(a, b) == expected


@pytest.mark.parametrize("kind", ["full", "pruned"])
@pytest.mark.parametrize("n", [3, 5, 17, 257])
def test_small_oracle_passes_stay_direct(n, kind, monkeypatch):
    # Small builds never pay for the FFT route (or for importing numpy.fft).
    calls = []
    fft = oracle._mul_fft
    monkeypatch.setattr(oracle, "_mul_fft", lambda *args: calls.append(args) or fft(*args))
    params = FermatParams.from_n(n)
    tower = build_schedule(params, build_invariant_sets(params), kind)
    assert oracle_check_tower(tower) == len(tower.nodes)
    assert calls == []


def test_routes_agree_on_a_65537_node(params65537, table65537):
    nodes = build_schedule(params65537, table65537, "pruned").nodes
    a, b = next(
        (a, b)
        for a, b in ((pv_of_part(x.left, table65537), pv_of_part(x.right, table65537)) for x in nodes)
        if 1 << 17 < a.nonzero_pairs().size * b.nonzero_pairs().size <= 1 << 20
    )
    ai, bi = a.nonzero_pairs(), b.nonzero_pairs()
    direct = _mul_direct(a, b, ai, bi)
    assert direct is not None and direct == _mul_fft(a, b, ai, bi) == pv_mul(a, b)


@pytest.mark.parametrize(
    "terms, dtype",
    [
        ({k: (-1) ** k * (k << 36) for k in range(1, 9)}, np.int64),
        ({k: (-1) ** k * (k << 36) for k in range(1, 9)}, object),
        # max |c| * nnz >= 2^61: an int64 sum would wrap, so only the
        # Python-integer fallback is exact.
        ({1: 1 << 62, 2: -(1 << 62), 3: 1 << 62, 4: -(1 << 63)}, np.int64),
    ],
    ids=["int64", "object", "past-int64"],
)
def test_l1_is_the_exact_sum(terms, dtype):
    v = vector(17, -7, terms)
    v = PeriodVector(17, v.constant, v.coeffs.astype(dtype))
    assert _l1(v, v.nonzero_pairs()) == 7 + 2 * sum(abs(c) for c in terms.values())
