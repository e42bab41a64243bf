import math
import random
from fractions import Fraction

import pytest

from quadcantor.exactmath import _atanh_scaled, ceil_sub_sqrt, floor_add_sqrt, log2_interval


def _rational(expr, bits):
    """sympy's value of expr to a relative accuracy of 2^-bits, as a Fraction."""
    sympy = pytest.importorskip("sympy")
    p, q = sympy.Rational(expr.evalf(math.ceil(bits * 0.302) + 5)).as_numer_denom()
    return Fraction(int(p), int(q))


def _log2_value(r, prec):
    """log2(r) from sympy's log(r, 2), far inside a unit of 2^-prec."""
    sympy = pytest.importorskip("sympy")
    return _rational(sympy.log(sympy.Rational(r.numerator, r.denominator), 2), prec + 60)


class TestFloorCeilWithSqrt:
    def test_perfect_square_boundary(self):
        assert floor_add_sqrt(Fraction(0), Fraction(49)) == 7
        assert floor_add_sqrt(Fraction(1, 2), Fraction(1, 4)) == 1
        assert ceil_sub_sqrt(Fraction(0), Fraction(49)) == -7

    def test_against_floats(self):
        rng = random.Random(2)
        for _ in range(500):
            a = Fraction(rng.randint(-900, 900), rng.randint(1, 7))
            b = Fraction(rng.randint(0, 8000), rng.randint(1, 7))
            got = floor_add_sqrt(a, b)
            value = float(a) + math.sqrt(float(b))
            assert got <= value + 1e-9
            assert got + 1 > value - 1e-9
            assert ceil_sub_sqrt(-a, b) == -got

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            floor_add_sqrt(Fraction(0), Fraction(-1))


class TestLog2Interval:
    def test_exact_powers_of_two(self):
        for e in (-5, -1, 0, 1, 13):
            lo, hi = log2_interval(Fraction(2) ** e, 64)
            assert lo == hi == e

    def test_encloses_truth(self):
        rng = random.Random(3)
        for _ in range(300):
            r = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            lo, hi = log2_interval(r, 64)
            truth = math.log2(r)
            assert float(lo) <= truth + 1e-12
            assert float(hi) >= truth - 1e-12
            assert hi - lo <= Fraction(1, 2**40)

    def test_near_power_of_two(self):
        r = Fraction(2**30 + 1)
        lo, hi = log2_interval(r, 96)
        truth = math.log2(float(r))
        assert float(lo) <= truth <= float(hi)
        assert hi - lo <= Fraction(1, 2**60)

    def test_bracket_straddling_two(self):
        # r^2 lies within 2^-199 below 2 and (r + 2^-200)^2 above it: the two
        # sit on either side of sqrt(2), where the mantissa m is replaced by
        # 2/m, and each bracket encloses its log2, within 2^-200 of 1/2, at
        # full width
        r = Fraction(math.isqrt(2 << 400), 1 << 200)
        assert 2 - Fraction(1, 1 << 199) < r * r < 2 < (r + Fraction(1, 1 << 200)) ** 2
        for x in (r, r + Fraction(1, 1 << 200)):
            lo, hi = log2_interval(x, 64)
            assert lo <= _log2_value(x, 64) <= hi
            assert lo <= Fraction(1, 2) <= hi <= lo + Fraction(1, 2**63)

    @pytest.mark.parametrize("prec, count", [(64, 60), (256, 40), (1024, 20), (4096, 8)])
    def test_encloses_sympy_value(self, prec, count):
        rng = random.Random(prec)
        for _ in range(count):
            bits = rng.choice((2, 20, 64, 300))
            r = Fraction(rng.randint(1, 1 << bits), rng.randint(1, 1 << bits))
            lo, hi = log2_interval(r, prec)
            assert lo <= _log2_value(r, prec) <= hi
            assert hi - lo <= Fraction(2, 1 << prec)

    def test_low_precisions_enclose(self):
        # with a few guard bits the roundings are a large share of them; the
        # brackets still enclose log2 r at full width
        rng = random.Random(8)
        for prec in range(0, 12):
            for _ in range(40):
                r = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
                lo, hi = log2_interval(r, prec)
                assert lo <= _log2_value(r, prec) <= hi
                assert hi - lo <= Fraction(2, 1 << prec)

    def test_atanh_brackets_enclose(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(9)
        for _ in range(300):
            y = rng.randint(3, 10**4)
            x, s = rng.randint(0, y // 3), rng.randint(1, 40)
            lo, hi = _atanh_scaled(x, y, s)
            value = sympy.atanh(sympy.Rational(x, y)) * 2**s
            assert lo <= _rational(value, s + 40) <= hi

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            log2_interval(Fraction(0), 32)

