"""Exact decision helpers for quantities involving one square root or log2.

Floors and ceilings of a +- sqrt(b) with rational a, b are read from one
integer square root, never from floating point.  Logarithm comparisons
needed by the certificate search are made rigorous with dyadic brackets of
log2 of a rational: directed-rounding mantissa squaring gives a provable
(lo, hi) pair of Fractions whose width halves per extracted bit.
"""

from __future__ import annotations

import math
from fractions import Fraction


def floor_add_sqrt(a: Fraction, b: Fraction) -> int:
    """floor(a + sqrt(b)) for rational a and rational b >= 0, exactly.

    For a = p/q and b = r/s, a + sqrt(b) = (p*s + sqrt(q*q*r*s))/(q*s), and
    the floor of (P + t)/Q with integers P, Q > 0 is (P + floor(t)) // Q.
    """
    if b < 0:
        raise ValueError("sqrt argument must be nonnegative")
    p, q, r, s = a.numerator, a.denominator, b.numerator, b.denominator
    return (p * s + math.isqrt(q * q * r * s)) // (q * s)


def ceil_sub_sqrt(a: Fraction, b: Fraction) -> int:
    """ceil(a - sqrt(b)) for rational a and rational b >= 0, exactly."""
    return -floor_add_sqrt(-a, b)


def _floor_log2(p: int, q: int) -> int:
    """floor(log2(p/q)) for positive integers, exactly: for e the difference
    of their bit lengths, 2^(e-1) < p/q < 2^(e+1), so it is e iff q*2^e <= p."""
    e = p.bit_length() - q.bit_length()
    return e if q << max(e, 0) <= p << max(-e, 0) else e - 1


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
