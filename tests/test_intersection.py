import math
import random
from fractions import Fraction

import pytest

import quadcantor as qc
from quadcantor import CapExceededError, FieldElement, PreconditionError, make_field
from quadcantor.intersection import _ball_candidates


@pytest.fixture(scope="module")
def cantor(gauss):
    return qc.ifs_new(gauss.element(3), [gauss.element(0), gauss.element(2)])


@pytest.fixture(scope="module")
def gaussian_four(gauss):
    return qc.ifs_new(gauss.element(-2, 1), [gauss.element(k) for k in range(4)])


def _values(points):
    return {p.value for p in points}


def _frac_values(gauss, fracs):
    return {FieldElement(gauss.element(f.numerator), f.denominator) for f in fracs}


WALL_D2 = [Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1)]
WALL_D10 = [
    Fraction(0),
    Fraction(1, 4),
    Fraction(3, 4),
    Fraction(1, 10),
    Fraction(3, 10),
    Fraction(7, 10),
    Fraction(9, 10),
    Fraction(1, 40),
    Fraction(3, 40),
    Fraction(9, 40),
    Fraction(13, 40),
    Fraction(27, 40),
    Fraction(31, 40),
    Fraction(37, 40),
    Fraction(39, 40),
    Fraction(1),
]

# (d, beta, digits, alpha, level) with non-real alpha, beta and digits; every
# case has intersection points at its level
PREFILTER_CASES = [
    (-1, (-1, 2), [(0, 0), (1, 0), (0, 1)], (1, 1), 4),
    (-2, (1, 1), [(0, 0), (0, 1)], (0, 1), 4),
    (-3, (1, 1), [(0, 0), (0, 1)], (1, 1), 4),
    (-7, (0, 1), [(0, 0), (1, 1)], (0, 1), 4),
    (-11, (0, 1), [(0, 0), (1, 1)], (0, 1), 4),
]


class TestPreconditions:
    def test_wall_case(self, gauss, cantor):
        rep = qc.preconditions(gauss.element(2), cantor)
        assert rep.alpha_beta_coprime
        assert not rep.case_ii_eligible  # 2 is not coprime to its conjugate
        assert rep.case_i_applicable and not rep.case_ii_applicable
        assert rep.applicable_case == "case_i"
        assert rep.sigma == pytest.approx(0.6309297535714574)

    def test_gaussian_case_two(self, gauss, gaussian_four):
        rep = qc.preconditions(gauss.element(-4, 1), gaussian_four)
        assert rep.alpha_beta_coprime  # gcd(17, 5) = 1
        assert rep.case_ii_eligible
        assert not rep.case_i_applicable  # sigma > 1
        assert rep.applicable_case == "case_ii"
        assert rep.sigma == pytest.approx(1.7227062322935722)

    def test_coprimality_failure(self, gauss):
        spec = qc.ifs_new(gauss.element(2), [gauss.element(0), gauss.element(1)])
        rep = qc.preconditions(gauss.element(1, 1), spec)
        assert not rep.alpha_beta_coprime
        assert rep.applicable_case is None

    def test_unit_alpha_rejected(self, gauss, cantor):
        with pytest.raises(PreconditionError):
            qc.preconditions(gauss.omega, cantor)


class TestMinimalTuple:
    def test_three_quarters(self, gauss):
        fact = qc.factor_element(gauss.element(2))
        z = FieldElement(gauss.element(3), 4)
        assert qc.minimal_tuple(z, fact) == (4,)

    def test_integral_point(self, gauss):
        fact = qc.factor_element(gauss.element(2))
        assert qc.minimal_tuple(FieldElement(gauss.one), fact) == (0,)
        assert qc.minimal_tuple(FieldElement(gauss.zero), fact) == (0,)

    def test_tenth(self, gauss):
        fact = qc.factor_element(gauss.element(10))
        z = FieldElement(gauss.element(1), 10)
        # factor order: (1+i) with b=2, then the two primes above 5
        assert qc.minimal_tuple(z, fact) == (2, 1, 1)

    def test_outside_d_alpha_rejected(self, gauss):
        fact = qc.factor_element(gauss.element(2))
        with pytest.raises(PreconditionError):
            qc.minimal_tuple(FieldElement(gauss.one, 3), fact)

    def test_conjugate_pole_rejected(self, gauss):
        # 1/conj(alpha) has its pole at the conjugate prime, outside D_alpha
        alpha = gauss.element(-4, 1)
        fact = qc.factor_element(alpha)
        z = FieldElement.from_ratio(gauss.one, alpha.conj())
        with pytest.raises(PreconditionError):
            qc.minimal_tuple(z, fact)

    def test_cancelled_conjugate_factor_accepted(self, gauss):
        # g*conj(alpha)/ (alpha*conj(alpha)) = g*conj(alpha)/17: in D_alpha
        alpha = gauss.element(-4, 1)
        fact = qc.factor_element(alpha)
        z = FieldElement.from_ratio(gauss.element(3), alpha)
        exps = qc.minimal_tuple(z, fact)
        assert exps == (1,)


class TestCertifiedBound:
    def test_wall_bound_finite_and_excluding(self, gauss, cantor):
        rep = qc.preconditions(gauss.element(2), cantor)
        covering = qc.covering_constants(cantor)
        lb = qc.c2_constant(cantor.beta, rep.alpha_factorization.primes)
        n0 = qc.certified_bound(rep, covering, lb)
        assert isinstance(n0, int) and n0 >= 1
        assert qc.tuple_is_excluded(cantor, lb, "case_i", (n0,))
        assert qc.tuple_is_excluded(cantor, lb, "case_i", (n0 + 3,))

    def test_gaussian_case_two_bound(self, gauss, gaussian_four):
        rep = qc.preconditions(gauss.element(-4, 1), gaussian_four)
        covering = qc.covering_constants(gaussian_four)
        lb = qc.c2_constant(gaussian_four.beta, rep.alpha_factorization.primes)
        n0 = qc.certified_bound(rep, covering, lb)
        assert isinstance(n0, int) and n0 >= 1
        assert qc.tuple_is_excluded(gaussian_four, lb, "case_ii", (n0,))

    def test_full_digit_set_has_no_certificate(self, gauss):
        spec = qc.ifs_new(gauss.element(-2, 1), [gauss.element(k) for k in range(5)])
        rep = qc.preconditions(gauss.element(-4, 1), spec)
        assert rep.applicable_case is None
        covering = qc.covering_constants(spec)
        lb = qc.c2_constant(spec.beta, rep.alpha_factorization.primes)
        assert qc.certified_bound(rep, covering, lb) is None

    def test_multi_prime_exclusion_samples(self, gauss, cantor):
        rng = random.Random(41)
        alpha = gauss.element(10)
        rep = qc.preconditions(alpha, cantor)
        assert rep.applicable_case == "case_i"
        covering = qc.covering_constants(cantor)
        lb = qc.c2_constant(cantor.beta, rep.alpha_factorization.primes)
        n0 = qc.certified_bound(rep, covering, lb)
        ell = rep.alpha_factorization.ell
        for _ in range(8):
            cuts = sorted(rng.randint(0, n0) for _ in range(ell - 1))
            tup = tuple(
                b - a for a, b in zip([0] + cuts, cuts + [n0])
            )
            assert sum(tup) == n0
            assert qc.tuple_is_excluded(cantor, lb, "case_i", tup)


class TestEnumerateLevel:
    def test_wall_level_four(self, gauss, cantor):
        pts = qc.enumerate_level(4, gauss.element(2), cantor)
        assert _values(pts) == _frac_values(gauss, WALL_D2)

    def test_level_zero_integers(self, gauss, cantor):
        pts = qc.enumerate_level(0, gauss.element(2), cantor)
        assert _values(pts) == _frac_values(gauss, [Fraction(0), Fraction(1)])

    def test_wall_ten_level_three(self, gauss, cantor):
        pts = qc.enumerate_level(3, gauss.element(10), cantor)
        assert _values(pts) == _frac_values(gauss, WALL_D10)

    def test_monotone_levels(self, gauss, cantor, gaussian_four):
        prev = set()
        for level in range(5):
            cur = _values(qc.enumerate_level(level, gauss.element(2), cantor))
            assert prev <= cur
            prev = cur
        prev = set()
        for level in range(3):
            cur = _values(qc.enumerate_level(level, gauss.element(-4, 1), gaussian_four))
            assert prev <= cur
            prev = cur

    def test_points_reverify(self, gauss, cantor):
        fact = qc.factor_element(gauss.element(10))
        for pt in qc.enumerate_level(3, gauss.element(10), cantor):
            assert qc.verify_coding(pt.coding, pt.value.num, pt.value.den, cantor)
            assert qc.minimal_tuple(pt.value, fact) == pt.exponents
            scaled = pt.value * gauss.element(10) ** pt.den_pow
            assert scaled.is_integral()
            assert qc.period_congruence_holds(pt, fact, cantor.beta)

    def test_values_unique(self, gauss, cantor):
        pts = qc.enumerate_level(4, gauss.element(2), cantor)
        assert len(pts) == len(_values(pts))

    def test_cap_aborts(self, gauss, cantor):
        with pytest.raises(CapExceededError):
            qc.enumerate_level(12, gauss.element(10), cantor, cap=10**4)

    def test_prefilter_matches_full_scan(self, gauss, gaussian_four):
        # word_cap=1 degenerates to a single whole-disk ball
        cases = [(gaussian_four, gauss.element(-4, 1), 2)]
        for d, beta, digits, alpha, level in PREFILTER_CASES:
            field = make_field(d)
            spec = qc.ifs_new(
                field.element(*beta), [field.element(*a) for a in digits]
            )
            cases.append((spec, field.element(*alpha), level))
        for spec, alpha, level in cases:
            fast = qc.enumerate_level(level, alpha, spec)
            slow = qc.enumerate_level(level, alpha, spec, word_cap=1)
            assert fast
            assert [p.value for p in fast] == [p.value for p in slow]


class TestBallCandidates:
    def test_matches_brute_force_disk(self):
        rng = random.Random(7)
        kept = 0
        for d in (-1, -2, -3, -7, -11):
            field = make_field(d)
            for _ in range(40):
                D = rng.randint(1, 12)
                X = rng.randint(-40, 40)
                Y = rng.randint(-40, 40)
                rn = rng.randint(0, 60)
                rd = rng.randint(1, 9)
                got: set = set()
                _ball_candidates(field, X, Y, D, rn, rd, got)
                # |x - X/D| and |y - Y/D| are at most 2*radius inside the ball
                reach = 2 * (math.isqrt(rn // rd) + 1) + 2
                want = set()
                for x in range(X // D - reach, X // D + reach + 1):
                    for y in range(Y // D - reach, Y // D + reach + 1):
                        gap = field.element(D * x - X, D * y - Y)
                        if Fraction(gap.norm(), D * D) <= Fraction(rn, rd):
                            want.add((x, y))
                assert got == want
                kept += len(want)
        assert kept > 0


class TestFullIntersection:
    def test_bounded_wall(self, gauss, cantor):
        rep = qc.full_intersection(gauss.element(2), cantor, mode="bounded", n_max=4)
        assert _values(rep.points) == _frac_values(gauss, WALL_D2)
        assert rep.certified_n0 is not None
        assert not rep.exhausted  # n_max is far below n0

    def test_certified_wall_falls_back_on_cap(self, gauss, cantor):
        rep = qc.full_intersection(gauss.element(2), cantor, mode="certified", cap=10**6)
        assert rep.certified_n0 is not None
        assert rep.level < rep.certified_n0
        assert not rep.exhausted
        assert _values(rep.points) == _frac_values(gauss, WALL_D2)

    def test_bounded_no_case_still_works(self, gauss):
        spec = qc.ifs_new(gauss.element(-2, 1), [gauss.element(k) for k in range(5)])
        rep = qc.full_intersection(gauss.element(-4, 1), spec, mode="bounded", n_max=1)
        assert rep.certified_n0 is None
        assert not rep.exhausted

    def test_certified_without_case_rejected(self, gauss):
        spec = qc.ifs_new(gauss.element(-2, 1), [gauss.element(k) for k in range(5)])
        with pytest.raises(PreconditionError):
            qc.full_intersection(gauss.element(-4, 1), spec, mode="certified")

    def test_unknown_mode_rejected(self, gauss, cantor):
        with pytest.raises(PreconditionError):
            qc.full_intersection(gauss.element(2), cantor, mode="everything")

    def test_sorted_deterministic(self, gauss, cantor):
        a = qc.full_intersection(gauss.element(2), cantor, mode="bounded", n_max=4)
        b = qc.full_intersection(gauss.element(2), cantor, mode="bounded", n_max=4)
        assert [p.value for p in a.points] == [p.value for p in b.points]
