"""The program's int arithmetic against mpmath, its reference: the decimal
text of a raw float (`to_text` against `libmp.to_str`), the rounding of an
int to a raw float (`round_raw` against `libmp.normalize`) and the two cosine
seeds (`cos_sin_fixed` against mpmath's cosine and sine)."""

import json
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, normalize, round_nearest, to_str

from ngontower.invariant_sets import build_invariant_sets
from ngontower.rawfloat import cos_sin_fixed, round_raw, to_text
from ngontower.residues import FermatParams
from ngontower.tower import CosineCache

GOLDEN = Path(__file__).parent / "golden"
# The digits the program prints: errors (6, 25), report (8, 40), tower (30).
DPS = (6, 8, 25, 30, 40)


def _raw(sign: int, man: int, exp: int) -> tuple:
    """A raw float in normal form: the mantissa made odd."""
    man |= 1
    return (sign, man, exp, man.bit_length())


def _same_text(raw: tuple) -> None:
    for dps in DPS:
        assert to_text(raw, dps) == to_str(raw, dps), (raw, dps)


@settings(max_examples=300, deadline=None)
@given(
    sign=st.integers(0, 1),
    man=st.integers(1, 1 << 600) | st.sampled_from([10**k - 1 for k in range(1, 45)]),
    # Near 1, near the 3500-bit edge of mpmath's fixed-point path, and far
    # past it, where mpmath finds the decimal exponent by ln 2 / ln 10.
    exp=st.integers(-700, 300)
    | st.integers(-4200, -3400)
    | st.integers(3400, 4200)
    | st.integers(-(1 << 64), 1 << 64),
)
@example(sign=0, man=1, exp=0)
@example(sign=1, man=99999999, exp=0)  # 8 nines rounded up to 1.0e+8 at 6 digits
@example(sign=0, man=1, exp=-3501)
@example(sign=0, man=1, exp=3500)
@example(sign=0, man=(1 << 3600) - 1, exp=-3)  # past the edge with an exponent of -3
def test_decimal_text_is_mpmaths(sign, man, exp):
    _same_text(_raw(sign, man, exp))


def test_decimal_text_of_zero():
    assert [to_text((0, 0, 0, 0), dps) for dps in DPS] == [to_str((0, 0, 0, 0), dps) for dps in DPS]


def test_decimal_text_of_every_golden_tower_value():
    lines = (GOLDEN / "tower_17_full.tower").read_text().splitlines()[1:]
    fields = [json.loads(line)[key] for line in lines for key in ("sign_margin", "value_left", "value_right")]
    assert len(fields) == 21  # 7 nodes
    for field in fields:
        sign, man, exp, bc = field["mpf"]
        raw = (sign, int(man, 16), exp, bc)
        _same_text(raw)
        assert to_text(raw, 30) == field["dec"]


@pytest.mark.parametrize("fixture", ["tower257_full", "tower65537"])
def test_decimal_text_of_every_built_tower_value(fixture, request):
    tower = request.getfixturevalue(fixture)
    report = tower.report
    raws = [raw for node in tower.nodes for raw in (node.sign_margin, node.value_left, node.value_right)]
    raws += [
        report.max_value_err, report.max_vieta_err, report.max_value_radius,
        report.min_sign_margin, report.p1, report.p1_err,
    ]
    for raw in raws:
        _same_text(raw)


@settings(max_examples=300, deadline=None)
@given(
    v=st.integers(-(1 << 700), 1 << 700),
    scale=st.integers(-200, 800),
    precision=st.integers(1, 600),
)
@example(v=11, scale=0, precision=3)  # 1011: a tie, rounded up to even 1100
@example(v=9, scale=0, precision=3)  # 1001: a tie, rounded down to even 1000
@example(v=-11, scale=5, precision=3)
@example(v=(1 << 200) - 1, scale=100, precision=53)  # rounds up to a power of two
@example(v=0, scale=7, precision=3)
def test_rounding_is_mpmaths(v, scale, precision):
    man = abs(v)
    want = normalize(int(v < 0), man, -scale, man.bit_length(), precision, round_nearest)
    assert round_raw(v, scale, precision) == want
    assert round_raw(v, scale) == from_man_exp(v, -scale)


def test_rounding_takes_a_tie_to_even():
    # 1001 and 1011 lie half-way between two 3-bit numbers: each goes to
    # the one whose last bit is 0, 1000 and 1100; past the half both go up.
    assert round_raw(9, 0, 3) == (0, 1, 3, 1)
    assert round_raw(11, 0, 3) == (0, 3, 2, 2)
    assert round_raw(-9, 0, 3) == (1, 1, 3, 1)
    assert round_raw(-11, 0, 3) == (1, 3, 2, 2)
    assert round_raw(19, 1, 3) == (0, 5, 1, 3)  # 10011 / 2: past the half, up to 101 / 2 * 4
    assert round_raw(17, 0, 3) == (0, 1, 4, 1)  # 10001: below the half, down
    assert round_raw(21, 0, 3) == (0, 5, 2, 3)  # 10101: below the half, down to odd 101


def _mpmath_seed(a: int, n: int, bits: int) -> list[int]:
    with mp.workprec(bits + 64):
        return [int(mp.nint(mp.ldexp(x, bits))) for x in mp.cos_sin(2 * mp.pi * a / n)]


@pytest.mark.parametrize("n", [3, 5, 17, 257, 65537])
def test_seeds_are_mpmaths_rounded_cosines(n):
    params = FermatParams.from_n(n)
    block = 1 << ((params.npairs.bit_length() + 1) // 2)
    for bits in [*range(1, 300, 13), 256, 576, 640, 1151, 2048]:
        for a in (1, block):
            assert list(cos_sin_fixed(a, n, bits)) == _mpmath_seed(a, n, bits), (a, bits)


@pytest.mark.parametrize("n, precision", [(5, 128), (17, 8), (257, 128), (65537, 512)])
def test_cosine_tables_start_from_the_seeds(n, precision):
    params = FermatParams.from_n(n)
    cache = CosineCache(params, build_invariant_sets(params), precision)
    wide = cache.wide_bits
    assert list(cache.low[1]) == _mpmath_seed(1, n, wide)
    assert list(cache.high[1]) == _mpmath_seed(cache.block, n, wide)
