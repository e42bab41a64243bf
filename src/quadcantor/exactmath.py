"""Exact decision helpers for quantities involving one square root or log2.

Floors and ceilings of a +- sqrt(b) with rational a, b are read from one
integer square root, never from floating point.  Logarithm comparisons
needed by the certificate search are made rigorous with dyadic brackets of
log2 of a rational: the atanh series of its mantissa, summed in integer
fixed point with directed rounding, gives a provable (lo, hi) pair of
Fractions.
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


def _atanh_scaled(x: int, y: int, s: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^s * atanh(x/y) <= hi, for integers 0 <= 3x <= y.

    atanh(z) is the sum of z^(2k+1)/(2k+1).  The lower end sums powers and
    terms rounded down, the upper end the same rounded up, until the upper
    power is at most one unit; the terms left out then sum to at most
    z^(2K+1)/(1 - z^2), which is 9/8 of the first power left out or less,
    as z^2 <= 1/9.  The upper chain is carried negated, so that floor
    division and shifts round it up.
    """
    yy = y * y
    lo, neg_hi = (x << s) // y, (-x << s) // y
    sq_lo, sq_hi = (x * x << s) // yy, -((-x * x << s) // yy)
    lo_sum = neg_sum = 0
    k = 1
    while neg_hi < -1:
        lo_sum += lo // k
        neg_sum += neg_hi // k
        lo = lo * sq_lo >> s
        neg_hi = neg_hi * sq_hi >> s
        k += 2
    return lo_sum, -neg_sum - (9 * neg_hi >> 3)


def log2_interval(r: Fraction, prec_bits: int = 64) -> tuple[Fraction, Fraction]:
    """Rigorous bracket (lo, hi) with lo <= log2(r) <= hi, for rational r > 0.

    Powers of two come back as lo == hi == log2(r); otherwise hi - lo is at
    most 2^(1-prec_bits).  With r = 2^e * m, m in [1, 2), and m replaced by
    2/m when m >= sqrt(2) (log2 m = 1 - log2(2/m)), z = (m - 1)/(m + 1) is
    at most 3 - 2*sqrt(2) < 1/3 and log2 m = atanh(z)/atanh(1/3).  Both
    series are bracketed in fixed point at s bits (``_atanh_scaled``), so
    the bracket is rigorous by its directed rounding alone.  The roundings
    of their about s/3 terms each and of the quotient widen it by under
    3s + 80 units of 2^-s, which the guard bits s - prec_bits = 8 +
    bit_length(prec_bits) keep below 2^(1-prec_bits).
    """
    p, q = r.numerator, r.denominator
    if p <= 0:
        raise ValueError("log2 argument must be positive")
    e = _floor_log2(p, q)
    num, den = (p, q << e) if e >= 0 else (p << -e, q)  # m = num/den in [1, 2)
    if num == den:
        return Fraction(e), Fraction(e)
    flip = num * num >= 2 * den * den
    if flip:
        num, den = 2 * den, num
    s = prec_bits + prec_bits.bit_length() + 8
    z_lo, z_hi = _atanh_scaled(num - den, num + den, s)
    ln2_lo, ln2_hi = _atanh_scaled(1, 3, s)
    lo, hi = (z_lo << s) // ln2_hi, -((-z_hi << s) // ln2_lo)
    if flip:
        e += 1
        lo, hi = -hi, -lo
    return Fraction((e << s) + lo, 1 << s), Fraction((e << s) + hi, 1 << s)
