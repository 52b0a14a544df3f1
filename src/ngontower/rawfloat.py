"""Binary floats and the two cosine seeds, in ints.

A raw float is the tuple (sign, man, exp, bc) that a tower file stores: the
value (-1)^sign man 2^exp, in the normal form that mpmath writes: the
mantissa odd, or (0, 0, 0, 0) for zero, and bc its bit length.  `round_raw`
makes one from an int at a scale, rounded once to nearest (a tie to even) at
a number of bits, and `to_text` writes its decimal text as mpmath's
`libmp.to_str`, and so `mp.nstr`, does, digit for digit.  `cos_sin_fixed`
gives (cos, sin)(2 pi a / n) correctly rounded at any scale, by Machin's
formula for pi and Taylor series (Brent and Zimmermann, Modern Computer
Arithmetic, ch. 4).
"""

import math

_LOG2_10 = math.log(10, 2)


def _cut(man: int, exp: int, prec: int, mode: str = "d") -> tuple[int, int]:
    """man 2^exp, man > 0, rounded to `prec` bits: toward zero ("d"), away
    from zero ("u") or to nearest with a tie to even ("n")."""
    drop = man.bit_length() - prec
    if drop <= 0:
        return man, exp
    kept = man >> drop
    rest = man - (kept << drop)
    if mode == "u":
        kept += rest > 0
    elif mode == "n":
        half = 1 << (drop - 1)
        kept += rest > half or (rest == half and kept & 1)
    return kept, exp + drop


def round_raw(v: int, scale: int, precision: int | None = None) -> tuple:
    """v 2^-scale as a raw float, rounded once to nearest (a tie to even) at
    `precision` bits, or exact when it is None."""
    if not v:
        return (0, 0, 0, 0)
    man, exp = abs(v), -scale
    if precision is not None:
        man, exp = _cut(man, exp, precision, "n")
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return (int(v < 0), man, exp + zeros, man.bit_length())


# ---------------------------------------------------------------------------
# Decimal text


def _div(a: tuple[int, int], b: tuple[int, int], prec: int) -> tuple[int, int]:
    """a / b, each (man, exp) with man > 0, rounded toward zero to `prec` bits."""
    (am, ae), (bm, be) = a, b
    shift = prec + bm.bit_length() - am.bit_length() + 1  # the quotient gets > prec bits
    q = (am << shift) // bm if shift >= 0 else am // (bm << -shift)
    return _cut(q, ae - be - shift, prec)


def _pow10(k: int, prec: int, mode: str) -> tuple[int, int]:
    """10^k, k > 0, at `prec` bits as mpmath's `mpf_pow_int` rounds it in
    `mode` ("d" or "u"): exact and rounded once below 334, else by binary
    powering with each product cut to prec + 4 bits(k) + 4 bits."""
    if k < 334:
        return _cut(5**k, k, prec, mode)
    work = prec + 4 * k.bit_length() + 4
    acc, base = (1, 0), (5, 1)
    while True:
        if k & 1:
            acc = _cut(acc[0] * base[0], acc[1] + base[1], work, mode)
            k -= 1
            if not k:
                break
        base = _cut(base[0] * base[0], 2 * base[1], work, mode)
        k //= 2
    return _cut(*acc, prec, mode)


def _series(m: int, bits: int, alternate: bool) -> tuple[int, int]:
    """atan(1/m) 2^bits (`alternate`) or atanh(1/m) 2^bits, m >= 2, and a
    bound on its error in units: each term floor(2^bits / ((2k+1) m^(2k+1)))
    is under one unit low, and the tail after the first term that floors to
    0 is under 2.  The atanh sum, whose terms are all positive, is low."""
    power, total, k = (1 << bits) // m, 0, 0
    while power:
        term = power // (2 * k + 1)
        total += -term if alternate and k & 1 else term
        power //= m * m
        k += 1
    return total, k + 2


def _log_floor(bits: int) -> tuple[int, int]:
    """floor(ln 2 2^bits) and floor(ln 10 2^bits), from ln 2 = 2 atanh(1/3)
    and ln 10 = 3 ln 2 + 2 atanh(1/9), at 32 guard bits more each time the
    floor is not settled by the series' error bound."""
    guard = 32
    while True:
        (a3, e3), (a9, e9) = _series(3, bits + guard, False), _series(9, bits + guard, False)
        ln2, ln10 = 2 * a3, 6 * a3 + 2 * a9  # at most 2 e3 and 6 e3 + 2 e9 below
        mask = (1 << guard) - 1
        if (ln2 & mask) + 2 * e3 < mask and (ln10 & mask) + 6 * e3 + 2 * e9 < mask:
            return ln2 >> guard, ln10 >> guard
        guard += 32


def _digits(man: int, exp: int, dps: int) -> tuple[str, int]:
    """The decimal digits of man 2^exp, man > 0, and the decimal exponent
    of the first, as mpmath's `to_digits_exp` finds them: `dps` digits and
    some more, cut toward zero.  When |exp + bits(man)| > 3500 the value is
    first divided by 10^b, b = exp ln 2 / ln 10 with both logarithms cut to
    bits(|exp|) + 5 bits, through the same roundings mpmath makes."""
    bitprec = int(dps * _LOG2_10) + 10
    exponent = 0
    if abs(exp + man.bit_length()) > 3500:
        if exp:
            prec = abs(exp).bit_length() + 5
            ln2, ln10 = _log_floor(prec)  # ln 10 has 2 integer bits: cut at prec - 2
            exponent = abs(exp) * ln2 // (ln10 >> 2 << 2)
            exponent = -exponent if exp < 0 else exponent
        if exponent > 0:
            man, exp = _div((man, exp), _pow10(exponent, bitprec, "d"), bitprec)
        elif exponent < 0:
            tenth = _div((1, 0), _pow10(-exponent, bitprec + 5, "u"), bitprec)
            man, exp = _div((man, exp), tenth, bitprec)
        else:
            man, exp = _cut(man, exp, bitprec)
    fixprec = max(bitprec - exp - man.bit_length(), 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    fixed = man << shift if shift >= 0 else man >> -shift
    digits = str(fixed * 10**fixdps >> fixprec)
    return digits, exponent + len(digits) - fixdps - 1


def to_text(raw: tuple, dps: int = 6) -> str:
    """The raw float's decimal text at `dps` significant digits, dps >= 1,
    as mpmath's `to_str(raw, dps)` writes it: the digits rounded half up
    from dps + 3 cut toward zero, trailing zeros stripped, fixed-point
    between exponents min(-(dps // 3), -5) and dps, exclusive, else with
    an exponent."""
    sign, man, exp, _ = raw
    if not man:
        return "0.0"
    digits, exponent = _digits(man, exp, dps + 3)
    if len(digits) > dps and digits[dps] in "56789":
        digits = str(int(digits[:dps]) + 1)
        if len(digits) > dps:  # 99..9 rounded up to 10..0
            digits = digits[:dps]
            exponent += 1
    else:
        digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    text = ("-" if sign else "") + digits + ("0" if digits[-1] == "." else "")
    if exponent:
        text += f"e{exponent:+d}"
    return text


# ---------------------------------------------------------------------------
# Cosine seeds


def _cos_sin_series(a: int, n: int, bits: int) -> tuple[int, int, int]:
    """(cos, sin)(2 pi a / n) 2^bits for 0 < a < n, and one bound on both
    errors, in units.  pi = 16 atan(1/5) - 4 atan(1/239) (Machin); the
    angle x is floored from it, off by e_x; each Taylor term t_k =
    floor(t_(k-1) x / k) is off by e_k <= e_(k-1) x / k + 1 from x^k / k!
    at the floored x, and the series stops at the first t_k = 0 with
    k > 2x, whose tail is then under 2 e_k.  As cos and sin are
    1-Lipschitz, each is within e_x plus the sum of its terms' e_k plus
    2 e_k of the true value."""
    (a5, e5), (a239, e239) = _series(5, bits, True), _series(239, bits, True)
    one = 1 << bits
    x = 2 * a * (16 * a5 - 4 * a239) // n
    err = -(-2 * a * (16 * e5 + 4 * e239) // n) + 1  # e_x, then the terms' errors added
    cos_sin, term, e, k = [0, 0], one, 0, 0
    while term or k * one <= 2 * x:
        cos_sin[k & 1] += -term if k & 2 else term
        err += e
        k += 1
        term = term * x // (k << bits)
        e = -(-e * x // (k << bits)) + 1
    return cos_sin[0], cos_sin[1], err + 2 * e


def cos_sin_fixed(a: int, n: int, bits: int) -> tuple[int, int]:
    """(cos, sin)(2 pi a / n) 2^bits, 0 < a < n and bits >= 1, each rounded
    to the nearest int: the series run at 64 guard bits, doubled until both
    roundings are settled by the error bound of `_cos_sin_series`.  Neither
    value lies half-way between ints (the only rational cosines and sines at
    a rational multiple of pi are 0, +-1/2 and +-1), so the loop ends."""
    guard = 64
    while True:
        c, s, err = _cos_sin_series(a, n, bits + guard)
        half, mask = 1 << (guard - 1), (1 << guard) - 1
        if all(err < (x + half) & mask < mask + 1 - err for x in (c, s)):
            return (c + half) >> guard, (s + half) >> guard
        guard *= 2
