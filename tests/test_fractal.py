import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quadcantor as qc
from quadcantor import CapExceededError, PreconditionError, fractal, make_field


class TestIfsNew:
    def test_valid_specs(self, cantor, gaussian_four):
        assert len(cantor.digits) == 2
        assert gaussian_four.beta.norm() == 5

    def test_norm_two_base_allowed(self, gauss):
        assert qc.ifs_new(gauss.element(1, 1), [gauss.element(0), gauss.element(1)])

    def test_unit_base_rejected(self, gauss):
        with pytest.raises(PreconditionError):
            qc.ifs_new(gauss.omega, [gauss.element(0), gauss.element(1)])

    def test_small_or_duplicate_digits_rejected(self, gauss):
        with pytest.raises(PreconditionError):
            qc.ifs_new(gauss.element(3), [gauss.element(0)])
        with pytest.raises(PreconditionError):
            qc.ifs_new(gauss.element(3), [gauss.element(0), gauss.element(0)])

    def test_digit_of_another_field_rejected(self, gauss, eisenstein):
        with pytest.raises(PreconditionError):
            qc.ifs_new(gauss.element(3), [gauss.element(0), eisenstein.element(1)])

    def test_equal_specs_hash_alike(self, gauss, cantor):
        twin = qc.ifs_new(gauss.element(3), [gauss.element(0), gauss.element(2)])
        other = qc.ifs_new(gauss.element(3), [gauss.element(0), gauss.element(1)])
        assert twin == cantor and hash(twin) == hash(cantor)
        assert twin != other
        assert {cantor: 1}[twin] == 1


class TestBoundingRadius:
    def test_cantor_exact_one(self, cantor):
        assert cantor.radius_sq == 1

    def test_gaussian_four(self, gaussian_four):
        r2 = gaussian_four.radius_sq
        true_sq = 9 / (6 - 2 * math.sqrt(5))  # (3/(sqrt(5)-1))^2
        assert float(r2) >= true_sq - 1e-12
        assert r2.denominator <= 64 * 64  # R' had denominator <= 64

    def test_minimal_over_denominators(self, gaussian_four):
        r2 = gaussian_four.radius_sq
        r_true = 3 / (math.sqrt(5) - 1)
        best = min(
            Fraction(math.ceil(r_true * den - 1e-9), den) for den in range(1, 65)
        )
        assert r2 == best * best

    def test_matches_fraction_loop(self):
        rng = random.Random(2718)
        checked = 0
        while checked < 120:
            field = make_field(rng.choice((-1, -2, -3, -7, -11)))
            beta = field.element(rng.randint(-6, 6), rng.randint(-4, 4))
            digits = {
                field.element(rng.randint(-9, 9), rng.randint(-5, 5))
                for _ in range(rng.randint(2, 5))
            }
            if beta.norm() < 2 or len(digits) < 2:
                continue
            spec = qc.ifs_new(beta, sorted(digits, key=lambda a: (a.x, a.y)))
            assert spec.radius_sq == _radius_sq_by_fractions(spec)
            checked += 1


    def test_norms_beyond_the_float_range(self, gauss):
        # R = 10^170/(10^200 - 1), or just below it, under 1/64 either way:
        # the rational branch (N(beta) a square) and the irrational one
        for beta in (gauss.element(10**200), gauss.element(10**200, 1)):
            spec = qc.ifs_new(beta, [gauss.element(0), gauss.element(10**170)])
            assert spec.radius_sq == Fraction(1, 4096)

    def test_least_numerator_by_the_exact_predicate(self):
        # squares for m, b and m*b take the rational branch
        def reached(num, den, m, b):
            # num/den >= sqrt(m)/(sqrt(b) - 1), squared twice into integers
            t = num * num * (b - 1) - m * den * den
            return t >= 0 and t * t >= 4 * num * num * m * den * den

        rng = random.Random(24)
        for _ in range(3000):
            m = rng.choice((rng.randint(1, 10**9), rng.randint(1, 10**4) ** 2))
            b = rng.choice(
                (rng.randint(2, 10**9), rng.randint(2, 10**4) ** 2, m * rng.randint(1, 9) ** 2)
            )
            den = rng.randint(1, 64)
            r2 = fractal.least_radius_sq(m, b, (den,))
            num = math.isqrt(r2.numerator) * den // math.isqrt(r2.denominator)
            assert Fraction(num, den) ** 2 == r2
            assert reached(num, den, m, b) and not reached(num - 1, den, m, b)


def _radius_sq_by_fractions(spec):
    """Reference: the Fraction search with a sign-and-square sqrt predicate."""
    m = max(a.norm() for a in spec.digits)
    b = spec.beta.norm()

    def reached(q):
        # q >= sqrt(m)/(sqrt(b)-1)  <=>  (m - q^2(b+1)) + 2 q^2 sqrt(b) <= 0
        lhs, coef = Fraction(m) - q * q * (b + 1), 2 * q * q
        if coef == 0:
            return lhs <= 0
        return lhs <= 0 and coef * coef * b <= lhs * lhs

    hint = math.sqrt(m) / (math.sqrt(b) - 1)
    best = None
    for den in range(1, 65):
        num = max(0, int(hint * den) - 2)
        while not reached(Fraction(num, den)):
            num += 1
        while num > 0 and reached(Fraction(num - 1, den)):
            num -= 1
        if best is None or Fraction(num, den) < best:
            best = Fraction(num, den)
    return best * best


class TestShiftedDigits:
    def test_are_the_digits_seen_from_the_disk_centre(self, gauss, cantor, gaussian_four):
        # a'/D = a - (beta - 1)*c for the disk centre c = C/D
        seven = make_field(-7)
        other = qc.ifs_new(seven.element(-1, -1), [seven.element(-1, 1), seven.element(2, 1)])
        for spec in (cantor, gaussian_four, other):
            centre, _ = spec.disk
            want = [qc.FieldElement(a) - centre * (spec.beta - 1) for a in spec.digits]
            got = [qc.FieldElement(spec.field.element(x, y), centre.den) for x, y in spec.shifted_digits]
            assert got == want


class TestSimilarityDimension:
    def test_cantor(self, cantor):
        assert qc.similarity_dimension(cantor) == pytest.approx(
            math.log(2) / math.log(3), abs=1e-12
        )

    def test_gaussian_four(self, gaussian_four):
        assert qc.similarity_dimension(gaussian_four) == pytest.approx(
            2 * math.log(4) / math.log(5), abs=1e-12
        )

    def test_full_digit_set_is_two(self, gauss):
        spec = qc.ifs_new(gauss.element(-2, 1), [gauss.element(k) for k in range(5)])
        assert qc.similarity_dimension(spec) == 2.0


class TestCoveringBound:
    def test_large_delta_single_ball(self, cantor):
        assert qc.covering_bound(cantor, Fraction(2)) == 1
        assert qc.covering_bound(cantor, Fraction(1)) == 1

    def test_nonpositive_delta_rejected(self, cantor):
        with pytest.raises(ValueError):
            qc.covering_bound(cantor, 0)

    def test_cantor_ninth(self, cantor):
        # k = 2 is the least k with 9^k * (1/81) >= 1
        assert qc.covering_bound(cantor, Fraction(1, 9)) == 4

    def test_ladder_scaling(self, cantor, gaussian_four):
        for spec in (cantor, gaussian_four):
            n_digits = len(spec.digits)
            beta_norm = spec.beta.norm()
            for u_norm in (1, 2, 7, 16, 100):
                small = qc.period_bound(spec, u_norm)
                big = qc.period_bound(spec, u_norm * beta_norm)
                assert big == small * n_digits

    def test_monotone_in_u_norm(self, cantor, gaussian_four):
        for spec in (cantor, gaussian_four):
            values = [qc.period_bound(spec, u) for u in range(1, 60)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_cylinder_centers_cover_samples(self, cantor, gaussian_four):
        # the covering bound counts depth-k cylinder balls; every sampled
        # point must lie within R'/|beta|^k of some depth-k center
        for spec, depth in ((cantor, 12), (gaussian_four, 8)):
            r_prime = math.sqrt(float(spec.radius_sq))
            abs_beta = math.sqrt(spec.beta.norm())
            pts = qc.sample_points(spec, depth)
            for k in (1, 2, 3):
                centers = set(qc.sample_points(spec, k))
                radius = r_prime / abs_beta**k
                dist = max(min(abs(z - c) for c in centers) for z in pts)
                assert dist <= radius * (1 + 1e-9)
                assert len(centers) <= len(spec.digits) ** k

    def test_grid_covering_within_bound_cantor(self, cantor):
        # aligned middle-third structure: grid cells of diameter 2*delta
        # stay within the covering bound along the natural ladder
        pts = qc.sample_points(cantor, 14)
        for k in range(5):
            delta = 1.0 / 3.0**k
            side = 2 * delta
            cells = {(math.floor(z.real / side), math.floor(z.imag / side)) for z in pts}
            assert len(cells) <= qc.covering_bound(cantor, Fraction(1, 3**k))


def _covering_exponent_by_fractions(spec, delta_sq):
    """Reference: the least k with N(beta)^k * delta^2 >= R'^2 in Fractions."""
    r2 = spec.radius_sq
    k, scale = 0, Fraction(1)
    while scale * delta_sq < r2:
        scale *= spec.beta.norm()
        k += 1
    return k


class TestCoveringExponent:
    def test_matches_fraction_loop(self):
        rng = random.Random(4711)
        for _ in range(40):
            field = make_field(rng.choice((-1, -2, -3, -7, -11)))
            beta = field.element(rng.randint(-5, 5), rng.randint(-5, 5))
            if beta.norm() < 2:
                continue
            digits = {field.element(rng.randint(-4, 4), rng.randint(-2, 2)) for _ in range(3)}
            if len(digits) < 2:
                continue
            spec = qc.ifs_new(beta, sorted(digits, key=lambda a: (a.x, a.y)))
            for _ in range(5):
                den = rng.randint(1, 10 ** rng.randint(1, 60))
                delta_sq = Fraction(rng.randint(1, 10**6), den)
                got = fractal.covering_exponent(spec.beta.norm(), spec.radius_sq, delta_sq)
                assert got == _covering_exponent_by_fractions(spec, delta_sq)


def _covering_exponent_one_factor(b, r2, delta_sq):
    """Reference: multiply in one factor of b at a time."""
    lhs = delta_sq.numerator * r2.denominator
    rhs = r2.numerator * delta_sq.denominator
    k = 0
    while lhs < rhs:
        lhs *= b
        k += 1
    return k


class TestCoveringExponentLifting:
    @settings(max_examples=300, deadline=None)
    @given(
        b=st.one_of(st.just(2), st.integers(2, 10**12)),
        rn=st.integers(1, 2**4100),
        rd=st.integers(1, 2**64),
        dn=st.integers(1, 2**64),
        dd=st.integers(1, 2**64),
    )
    @example(b=2, rn=1, rd=1, dn=1, dd=1)  # lhs >= rhs: k = 0
    @example(b=7, rn=3, rd=1, dn=5, dd=1)
    @example(b=5, rn=5, rd=1, dn=1, dd=1)  # lhs * b == rhs: k = 1
    @example(b=2, rn=2**4001 + 1, rd=1, dn=1, dd=1)  # ratio past 2^4000
    def test_matches_one_factor_loop(self, b, rn, rd, dn, dd):
        r2, delta_sq = Fraction(rn, rd), Fraction(dn, dd)
        want = _covering_exponent_one_factor(b, r2, delta_sq)
        assert fractal.covering_exponent(b, r2, delta_sq) == want

    @settings(max_examples=300, deadline=None)
    @given(
        b=st.one_of(st.just(2), st.integers(2, 10**6)),
        lhs=st.integers(1, 10**30),
        k=st.integers(0, 4200),
        offset=st.sampled_from((-1, 0, 1)),
    )
    def test_boundaries(self, b, lhs, k, offset):
        # rhs = lhs * b^k + offset sits at or next to the step at depth k
        rhs = lhs * b**k + offset
        r2, delta_sq = Fraction(rhs), Fraction(lhs)
        got = fractal.covering_exponent(b, r2, delta_sq)
        assert got == _covering_exponent_one_factor(b, r2, delta_sq)
        if offset >= 0:
            assert got == k + offset


def _least_radius_sq_by_fractions(m, b, dens):
    """Reference: one Fraction per denominator, then their minimum."""
    radii = []
    for den in dens:
        y = m * den * den
        x = b * y
        s = math.isqrt(x + y + math.isqrt(4 * x * y))
        exact = math.isqrt(x) ** 2 == x and math.isqrt(y) ** 2 == y
        radii.append(Fraction(-(-s // (b - 1)) if exact else s // (b - 1) + 1, den))
    return min(radii) ** 2


class TestLeastRadiusIntegerOnly:
    def test_matches_fraction_minimum(self):
        rng = random.Random(65)
        kinds = set()
        for _ in range(600):
            m = rng.choice((rng.randint(1, 10**12), rng.randint(1, 10**6) ** 2))
            b = rng.choice(
                (rng.randint(2, 10**12), rng.randint(2, 10**6) ** 2, m * rng.randint(1, 9) ** 2)
            )
            kinds.add((math.isqrt(m) ** 2 == m, math.isqrt(b) ** 2 == b,
                       math.isqrt(m * b) ** 2 == m * b))
            for dens in (range(1, 65), (64,)):
                want = _least_radius_sq_by_fractions(m, b, dens)
                assert fractal.least_radius_sq(m, b, dens) == want
        # square and non-square m, b and m*b all occur
        assert len(kinds) >= 4

    def test_empty_denominators_rejected(self):
        with pytest.raises(ValueError):
            fractal.least_radius_sq(2, 5, ())


class TestPeriodBound:
    def test_trivial_denominator(self, cantor):
        assert qc.period_bound(cantor, 1) >= 1

    def test_bounds_actual_period(self, cantor, gauss):
        coding = qc.coding_of(gauss.element(1), 4, cantor)
        assert len(coding.period) <= qc.period_bound(cantor, 16)

    def test_invalid_u_norm(self, cantor):
        with pytest.raises(ValueError):
            qc.period_bound(cantor, 0)


class TestSamplePoints:
    def test_depth_one(self, cantor):
        pts = sorted(z.real for z in qc.sample_points(cantor, 1))
        assert pts == pytest.approx([0.0, 2 / 3])

    def test_depth_two(self, cantor):
        pts = sorted(z.real for z in qc.sample_points(cantor, 2))
        assert pts == pytest.approx([0.0, 2 / 9, 2 / 3, 8 / 9])

    def test_count(self, gaussian_four):
        assert len(qc.sample_points(gaussian_four, 5)) == 4**5

    def test_cap(self, cantor):
        with pytest.raises(CapExceededError):
            qc.sample_points(cantor, 30, cap=1000)

    def test_depth_zero_rejected(self, cantor):
        with pytest.raises(ValueError):
            qc.sample_points(cantor, 0)


class TestBoxDim:
    def test_cantor_estimate(self, cantor):
        est = qc.box_dim_estimate(cantor, range(4, 13))
        assert abs(est.dimension - math.log(2) / math.log(3)) < 0.05

    def test_full_digit_tile_near_two(self, gauss):
        spec = qc.ifs_new(gauss.element(-2, 1), [gauss.element(k) for k in range(5)])
        est = qc.box_dim_estimate(spec, range(3, 8))
        assert est.dimension > 1.6

    def test_single_depth_rejected(self, cantor):
        with pytest.raises(ValueError):
            qc.box_dim_estimate(cantor, [5])
        with pytest.raises(ValueError):
            qc.box_dim_estimate(cantor, [6, 4, 5])
