import math
import random
from fractions import Fraction

import pytest

from quadcantor.exactmath import ceil_sub_sqrt, floor_add_sqrt, log2_interval


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
        # r^2 lies within 2^-199 below 2, so the first squaring's bracket
        # straddles 2 and the residual log2 is only known to lie in [0, 2)
        r = Fraction(math.isqrt(2 << 400), 1 << 200)
        lo, hi = log2_interval(r, 64)
        assert (lo, hi) == (0, 1)
        assert 2**lo <= r <= 2**hi
        assert 2 - Fraction(1, 1 << 199) < r * r < 2

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            log2_interval(Fraction(0), 32)

