"""Exact decision helpers for quantities involving one square root or log2.

Floors and ceilings of a +- sqrt(b) with rational a, b are fixed by exact
squaring, never by floating point.  Logarithm comparisons needed by the
certificate search are made rigorous with dyadic brackets of log2 of a
rational: directed-rounding mantissa squaring gives a provable (lo, hi) pair
of Fractions whose width halves per extracted bit.
"""

from __future__ import annotations

import math
from fractions import Fraction


def floor_add_sqrt(a: Fraction, b: Fraction) -> int:
    """floor(a + sqrt(b)) for rational a and rational b >= 0, exactly."""
    if b < 0:
        raise ValueError("sqrt argument must be nonnegative")
    # integer hint within a couple of the truth, then exact fix-up
    hint = a.numerator // a.denominator + math.isqrt(b.numerator // b.denominator)

    def le_exact(m: int) -> bool:
        # m <= a + sqrt(b)
        t = Fraction(m) - a
        if t <= 0:
            return True
        return t * t <= b

    m = hint
    while not le_exact(m):
        m -= 1
    while le_exact(m + 1):
        m += 1
    return m


def ceil_sub_sqrt(a: Fraction, b: Fraction) -> int:
    """ceil(a - sqrt(b)) for rational a and rational b >= 0, exactly."""
    return -floor_add_sqrt(-a, b)


def _floor_log2(p: int, q: int) -> int:
    """floor(log2(p/q)) for positive integers, exactly."""
    e = p.bit_length() - q.bit_length()
    # correct e so that q*2^e <= p < q*2^(e+1)
    def le_pow2(k: int) -> bool:  # 2^k <= p/q ?
        return (q << k) <= p if k >= 0 else q <= (p << -k)

    while not le_pow2(e):
        e -= 1
    while le_pow2(e + 1):
        e += 1
    return e


def log2_interval(r: Fraction, prec_bits: int = 64) -> tuple[Fraction, Fraction]:
    """Rigorous bracket (lo, hi) with lo <= log2(r) <= hi, for rational r > 0.

    Powers of two come back as lo == hi == log2(r); otherwise the width is
    at most 2^(1-prec_bits) plus directed-rounding slack already absorbed
    into the bracket.
    """
    p, q = r.numerator, r.denominator
    if p <= 0:
        raise ValueError("log2 argument must be positive")
    e = _floor_log2(p, q)
    exact_pow2 = (q << e) == p if e >= 0 else (p << -e) == q
    if exact_pow2:
        return Fraction(e), Fraction(e)

    guard = 16
    s = prec_bits + guard
    # fixed-point mantissa m/2^s for p/(q*2^e) in [1, 2)
    if e >= 0:
        num, den = p << s, q << e
    else:
        num, den = p << (s - e), q
    m_lo = num // den
    m_hi = m_lo + (1 if num % den else 0)

    two = 2 << s
    out = 0
    for i in range(1, prec_bits + 1):
        m_lo = (m_lo * m_lo) >> s
        m_hi = -((-(m_hi * m_hi)) >> s)
        out <<= 1
        if m_lo >= two:
            out |= 1
            m_lo >>= 1
            m_hi = -((-m_hi) >> 1)
        elif m_hi < two:
            pass
        else:
            # bracket straddles 2: residual log2 lies in [0, 2)
            return (
                Fraction(e) + Fraction(out, 1 << i),
                Fraction(e) + Fraction(out + 2, 1 << i),
            )
    return (
        Fraction(e) + Fraction(out, 1 << prec_bits),
        Fraction(e) + Fraction(out + 1, 1 << prec_bits),
    )
