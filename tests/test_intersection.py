import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from order_oracle import brute_ord_mod

import quadcantor as qc
from quadcantor import CapExceededError, FieldElement, PreconditionError, make_field
from quadcantor import intersection, membership
from quadcantor.ideals import prime_power_product
from quadcantor.intersection import (
    _ball_candidates,
    _lattice,
    _scan_plan,
    _shortest,
    survivors,
)


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

    def test_cap_is_the_scan_cost(self, gauss, gaussian_four):
        alpha = gauss.element(-4, 1)
        cost = _scan_plan(gaussian_four, _lattice(qc.factor_element(alpha), (2,)))
        with pytest.raises(CapExceededError) as err:
            qc.enumerate_level(2, alpha, gaussian_four, cap=cost - 1)
        assert err.value.estimate == cost and err.value.cap == cost - 1
        assert qc.enumerate_level(2, alpha, gaussian_four, cap=cost)

    def test_prefilter_matches_full_scan(self, gauss, gaussian_four):
        # the sweep against one whole-disk scan per lattice: the PREFILTER
        # cases and case (ii) at their level, the seeded specs of
        # ``_scan_cases`` in nine fields on their sublattices, and a spec
        # whose orbit disk falls back to the 0-centred one
        cases = _fixed_cases(gauss, gaussian_four)
        fallback = cases[-1][0]
        centre, r2 = qc.orbit_disk(fallback)
        assert centre == 0 and r2 == qc.bounding_radius_sq(fallback)
        seeded_points = 0
        for spec, alpha, level, exps in cases + list(_scan_cases()):
            fast = qc.enumerate_level(level, alpha, spec, cap=10**6, exponents=exps)
            assert _values(fast) == _whole_disk_points(spec, alpha, level, exps)
            if exps is None:
                assert fast  # every fixed case has points at its level
            else:
                seeded_points += len(fast)
        assert seeded_points > 0

    def test_points_match_candidate_oracle(self, gauss, gaussian_four):
        # the peel against deciding every candidate of the sweep on its own,
        # on whole points: value, exponents, den_pow and coding
        for spec, alpha, level, exps in _fixed_cases(gauss, gaussian_four) + list(
            _scan_cases()
        ):
            fast = qc.enumerate_level(level, alpha, spec, cap=10**6, exponents=exps)
            assert {p.value: p for p in fast} == _candidate_oracle(spec, alpha, level, exps)

    def test_sweep_stores_only_the_members_orbits(self, gauss, cantor):
        # the peel decides the candidates of Wall level 22 itself, so only
        # the members' own orbit graphs are explored and cached
        membership._SPACES.clear()
        pts = qc.enumerate_level(22, gauss.element(2), cantor, cap=10**30)
        stored = sum(len(space.alive) for space in membership._SPACES.values())
        assert len(pts) == 4
        assert stored <= sum(
            qc.state_count(p.value.num, p.value.den, cantor) for p in pts
        )


def _fixed_cases(gauss, gaussian_four):
    """(spec, alpha, level, None): case (ii), the PREFILTER cases, and last
    a spec whose orbit disk falls back to the 0-centred one."""
    cases = [(gaussian_four, gauss.element(-4, 1), 2, None)]
    for d, beta, digits, alpha, level in PREFILTER_CASES:
        field = make_field(d)
        spec = qc.ifs_new(field.element(*beta), [field.element(*a) for a in digits])
        cases.append((spec, field.element(*alpha), level, None))
    fallback = qc.ifs_new(
        gauss.element(1, 2), [gauss.element(-1), gauss.element(1), gauss.element(0, 1)]
    )
    cases.append((fallback, gauss.element(2), 3, None))
    return cases


def _candidate_oracle(spec, alpha, level, exps):
    """The sweep's points by value, each candidate of ``_candidate_numerators``
    decided by ``is_member`` and coded by ``coding_of``; den_pow is the
    least N with alpha^N * z integral."""
    fact = qc.factor_element(alpha)
    if exps is None:
        exps = tuple(level * b for b in fact.exponents)
    lattice = _lattice(fact, exps)
    sub = lattice.sub
    conj_delta = lattice.delta.conj()
    out = {}
    for x, y in intersection._candidate_numerators(spec, lattice):
        g = spec.field.element(x, y)
        v = g * conj_delta
        v = spec.field.element(v.x // sub.norm, v.y // sub.norm)
        if not qc.is_member(v, lattice.u, spec):
            continue
        value = FieldElement.from_ratio(g, lattice.delta)
        den_pow = 0
        while not (value * alpha**den_pow).is_integral():
            den_pow += 1
        out[value] = qc.IntersectionPoint(
            value=value,
            den_pow=den_pow,
            exponents=qc.minimal_tuple(value, fact),
            coding=qc.coding_of(v, lattice.u, spec),
        )
    return out


def _whole_disk_points(spec, alpha, level, exps):
    """The attractor points of the lattice prod P_j^{-n_j} (alpha^-level
    when exps is None): the points g/delta with g in ``sub`` and
    |g/delta| <= R', filtered by exact membership."""
    fact = qc.factor_element(alpha)
    if exps is None:
        exps = tuple(level * b for b in fact.exponents)
    lattice = _lattice(fact, exps)
    r2 = qc.bounding_radius_sq(spec)
    sub = lattice.sub
    disk: set = set()
    rn = lattice.delta.norm() * r2.numerator
    _ball_candidates(spec.field, 0, 0, 1, rn, r2.denominator, disk, (sub.a, sub.b, sub.c))
    conj_delta = lattice.delta.conj()
    out = set()
    for x, y in disk:
        g = spec.field.element(x, y)
        v = g * conj_delta
        v = spec.field.element(v.x // sub.norm, v.y // sub.norm)
        if qc.is_member(v, lattice.u, spec):
            out.add(FieldElement.from_ratio(g, lattice.delta))
    return out


def _scan_cases():
    """Seeded (spec, alpha, level, exponents) in nine fields; the last four
    are not UFDs, so their sweeps run on sublattices."""
    rng = random.Random(11)
    for d in (-1, -2, -3, -7, -11, -5, -6, -10, -15):
        field = make_field(d)
        for _ in range(12):
            beta = field.element(rng.randint(-3, 3), rng.randint(-2, 2))
            while beta.norm() < 2:
                beta = field.element(rng.randint(-3, 3), rng.randint(-2, 2))
            digits = {
                field.element(rng.randint(-2, 2), rng.randint(-1, 1))
                for _ in range(rng.randint(2, 4))
            }
            if len(digits) < 2:
                continue
            spec = qc.ifs_new(beta, sorted(digits, key=lambda a: (a.x, a.y)))
            alpha = field.element(rng.randint(-3, 3), rng.randint(-2, 2))
            if alpha.norm() < 2:
                continue
            level = rng.randint(0, 3)
            fact = qc.factor_element(alpha)
            yield spec, alpha, level, tuple(rng.randint(0, level * b) for b in fact.exponents)


class TestScanPlan:
    def test_cost_bounds_the_scan(self, monkeypatch):
        touched = []

        def counting(field, X, Y, D, rn, rd, out, hnf):
            ball: set = set()
            _ball_candidates(field, X, Y, D, rn, rd, ball, hnf)
            # rows that yielded points plus the points themselves
            touched.append(len({y for _, y in ball}) + len(ball))
            out |= ball

        monkeypatch.setattr(intersection, "_ball_candidates", counting)
        for spec, alpha, _, exps in _scan_cases():
            beta = spec.beta
            lattice = _lattice(qc.factor_element(alpha), exps)
            k = intersection._cover(spec, lattice)[0]
            cost = _scan_plan(spec, lattice)
            # k is the least depth whose balls, scaled by delta, have
            # squared radius <= N(sub)
            need = lattice.u * qc.orbit_disk(spec)[1]
            assert beta.norm() ** k >= need
            assert k == 0 or beta.norm() ** (k - 1) < need
            touched.clear()
            intersection._candidate_numerators(spec, lattice)
            assert len(touched) <= len(spec.digits) ** k
            assert sum(touched) <= cost


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
                _ball_candidates(field, X, Y, D, rn, rd, got, (1, 0, 1))
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


class TestSublattice:
    FIELDS = (-1, -2, -3, -7, -11, -5, -6, -10, -15)

    def test_ball_candidates_on_an_ideal_match_brute_force(self):
        rng = random.Random(17)
        kept = 0
        for d in self.FIELDS:
            field = make_field(d)
            for _ in range(25):
                z = field.element(rng.randint(-4, 4), rng.randint(-3, 3))
                if z.is_zero():
                    continue
                ideal = qc.ideal_from_generators([z, field.element(rng.randint(1, 5))])
                D = rng.randint(1, 6)
                X, Y = rng.randint(-30, 30), rng.randint(-30, 30)
                rn, rd = rng.randint(0, 90), rng.randint(1, 4)
                got: set = set()
                _ball_candidates(field, X, Y, D, rn, rd, got, (ideal.a, ideal.b, ideal.c))
                reach = 2 * (math.isqrt(rn // rd) + 1) + 2
                want = set()
                for x in range(X // D - reach, X // D + reach + 1):
                    for y in range(Y // D - reach, Y // D + reach + 1):
                        gap = field.element(D * x - X, D * y - Y)
                        if Fraction(gap.norm(), D * D) <= Fraction(rn, rd) and ideal.contains(
                            field.element(x, y)
                        ):
                            want.add((x, y))
                assert got == want
                kept += len(want)
        assert kept > 0

    def test_shortest_has_least_norm(self):
        rng = random.Random(19)
        for d in self.FIELDS:
            field = make_field(d)
            for _ in range(20):
                z = field.element(rng.randint(-9, 9), rng.randint(-5, 5))
                if z.is_zero():
                    continue
                ideal = qc.ideal_from_generators([z, field.element(rng.randint(1, 30))])
                short = _shortest(ideal)
                assert ideal.contains(short) and not short.is_zero()
                # a lies in the ideal, and every element of norm <= a^2 has
                # |x|, |y| <= 2*a
                reach = 2 * ideal.a
                least = min(
                    field.element(x, y).norm()
                    for x in range(-reach, reach + 1)
                    for y in range(-reach, reach + 1)
                    if (x or y) and ideal.contains(field.element(x, y))
                )
                assert short.norm() == least

    def test_lattice_is_the_inverse_ideal(self):
        # z in I^-1 exactly when z*I is integral; (1/delta)*sub must be I^-1
        for d, alpha, exps in (
            (-5, (2, 0), (3,)),
            (-6, (0, 1), (1,)),
            (-6, (3, 1), (2, 1)),
            (-1, (10, 0), (14, 4, 4)),
            (-15, (2, 0), (2, 1)),
        ):
            field = make_field(d)
            fact = qc.factor_element(field.element(*alpha))
            lat = _lattice(fact, exps)
            ideal = prime_power_product(field, fact.primes, exps)
            assert lat.u == ideal.norm
            assert lat.delta.norm() == lat.u * lat.sub.norm
            for g in lat.sub.basis():
                z = FieldElement.from_ratio(g, lat.delta)
                for h in ideal.basis():
                    assert (z * FieldElement(h)).is_integral()
            # sub is no larger than delta * I^-1: N(sub) = N(delta)/N(I)
            # already pins it, and in a UFD it is the whole ring
            if d in qc.UFD_FIELDS:
                assert lat.sub.is_unit()


def _maximal(tuples):
    return sorted(
        t for t in tuples
        if not any(o != t and all(a <= b for a, b in zip(t, o)) for o in tuples)
    )


def _oracle_survivors(spec, report, n_max, n0):
    """Maximal tuples of the box that brute-force orders do not exclude.

    u_norm comes from the tuple's ideal: its least positive integer (the
    Hermite form's a) squared in case (i), its norm in case (ii).
    """
    fact = report.alpha_factorization
    field = spec.field
    kept, by_max = [], []
    for n in itertools.product(*(range(n_max * b + 1) for b in fact.exponents)):
        if sum(n) >= n0:
            continue
        ideal = prime_power_product(field, fact.primes, n)
        u_norm = ideal.a**2 if report.applicable_case == "case_i" else ideal.norm
        bound = qc.period_bound(spec, u_norm)
        if brute_ord_mod(spec.beta, ideal) <= bound:
            kept.append(n)
        largest = max(
            [1]
            + [
                brute_ord_mod(spec.beta, prime_power_product(field, (p,), (k,)))
                for p, k in zip(fact.primes, n)
                if k
            ]
        )
        if largest <= bound:
            by_max.append(n)
    return _maximal(kept), _maximal(by_max)


# a rational prime split in each field: two primes over one p
SPLIT = {-1: 5, -2: 3, -3: 7, -7: 2, -11: 3}


def _seeded_cases(rng, fields, per_field, norm_cap, split=False):
    """(spec, alpha, report, lb, n0, N) with an applicable case and ell <= 2;
    N is the largest level whose ideals all have norm at most norm_cap.
    With ``split``, alpha is the field's entry of SPLIT."""
    for d in fields:
        field = make_field(d)
        found = 0
        while found < per_field:
            beta = field.element(rng.randint(-7, 7), rng.randint(-4, 4))
            if beta.norm() < 5:
                continue
            digits = {
                field.element(rng.randint(-2, 2), rng.randint(-1, 1))
                for _ in range(rng.randint(2, 3))
            }
            if len(digits) < 2:
                continue
            spec = qc.ifs_new(beta, sorted(digits, key=lambda a: (a.x, a.y)))
            alpha = field.element(rng.randint(-4, 4), rng.randint(-3, 3))
            if split:
                alpha = field.element(SPLIT[d])
            if alpha.norm() < 2:
                continue
            report = qc.preconditions(alpha, spec)
            fact = report.alpha_factorization
            if report.applicable_case is None or fact.ell > 2:
                continue
            lb = qc.c2_constant(beta, fact.primes)
            n0 = qc.certified_bound(report, qc.covering_constants(spec), lb)
            n_max = 1
            while all(p.norm ** ((n_max + 1) * b) <= norm_cap for p, b in fact.factors):
                n_max += 1
            found += 1
            yield spec, alpha, report, lb, n0, n_max


class TestSurvivors:
    def test_matches_brute_force_orders(self):
        rng = random.Random(5)
        excluded = lcm_needed = 0
        fields = (-1, -2, -3, -7, -11)
        for spec, _, report, lb, n0, n_max in itertools.chain(
            _seeded_cases(rng, fields, 4, 3000),
            _seeded_cases(rng, fields, 2, 3000, split=True),
        ):
            want, by_max = _oracle_survivors(spec, report, n_max, n0)
            assert list(survivors(report, spec, lb, n_max, n0)) == want
            excluded += want != [tuple(n_max * b for b in report.alpha_factorization.exponents)]
            lcm_needed += by_max != want
        # the cases exercise exclusion, and the lcm beyond the largest order
        assert excluded >= 10 and lcm_needed >= 2

    def test_u_limit_bounds_what_c2_keeps(self):
        # every u above the limit is excluded by the c2 bound alone
        rng = random.Random(5)
        checked = 0
        for spec, _, report, lb, _, _ in _seeded_cases(rng, (-1, -2, -3, -7, -11), 2, 3000):
            case = report.applicable_case
            limit = intersection._u_limit(spec, lb, case)
            if limit > 10**5:
                continue
            kept = [
                u for u in range(1, 4 * limit + 1)
                if lb.c2 * u <= qc.period_bound(spec, intersection._u_norm(case, u))
            ]
            assert max(kept) <= limit
            checked += 1
        assert checked >= 5

    def test_wall_sets(self, gauss, cantor):
        for alpha, want in ((2, [(20,)]), (10, [(14, 4, 4), (18, 3, 3), (20, 2, 2), (28, 1, 1)])):
            report = qc.preconditions(gauss.element(alpha), cantor)
            lb = qc.c2_constant(cantor.beta, report.alpha_factorization.primes)
            n0 = qc.certified_bound(report, qc.covering_constants(cantor), lb)
            assert list(survivors(report, cantor, lb, n0, n0)) == want

    def test_three_rational_primes(self, gauss, cantor):
        # 70 = (1+i)^2 (2+i)(2-i) 7 up to a unit: n0 = 497 over ell = 4,
        # searched through the u-limited groups in well under a second
        report = qc.preconditions(gauss.element(70), cantor)
        lb = qc.c2_constant(cantor.beta, report.alpha_factorization.primes)
        n0 = qc.certified_bound(report, qc.covering_constants(cantor), lb)
        start = time.perf_counter()
        found = survivors(report, cantor, lb, n0, n0)
        assert time.perf_counter() - start < 5
        assert n0 == 497 and len(found) == 13
        assert (28, 1, 1, 1) in found and max(sum(n) for n in found) < 40

    def test_no_case_keeps_the_whole_box(self, gauss):
        spec = qc.ifs_new(gauss.element(-2, 1), [gauss.element(k) for k in range(5)])
        report = qc.preconditions(gauss.element(10), spec)
        assert report.applicable_case is None
        assert survivors(report, spec, None, 3, None) == ((6, 3, 3),)


class TestBoundedMatchesLevelSweep:
    """full_intersection(bounded, N) sweeps survivors; enumerate_level(N)
    sweeps alpha^-N.  Points, tuples, den_pow and codings must agree."""

    @staticmethod
    def _same(alpha, spec, level):
        rep = qc.full_intersection(alpha, spec, mode="bounded", n_max=level, cap=10**7)
        assert rep.level == level
        assert rep.points == qc.enumerate_level(level, alpha, spec, cap=10**7)
        return rep

    def test_wall_d2_levels(self, gauss, cantor):
        for level in range(23):
            rep = self._same(gauss.element(2), cantor, level)
        assert rep.survivors == ((20,),)

    def test_wall_d10_levels(self, gauss, cantor):
        for level in range(4):
            self._same(gauss.element(10), cantor, level)

    def test_case_two_and_prefilter_cases(self, gauss, gaussian_four):
        self._same(gauss.element(-4, 1), gaussian_four, 3)
        for d, beta, digits, alpha, level in PREFILTER_CASES:
            field = make_field(d)
            spec = qc.ifs_new(field.element(*beta), [field.element(*a) for a in digits])
            self._same(field.element(*alpha), spec, level)

    def test_seeded_specs(self):
        rng = random.Random(23)
        narrowed = 0
        for spec, alpha, _, _, _, n_max in _seeded_cases(
            rng, (-1, -2, -3, -7, -11), 3, 20000
        ):
            rep = self._same(alpha, spec, n_max)
            top = tuple(n_max * b for b in rep.preconditions.alpha_factorization.exponents)
            narrowed += rep.survivors != (top,)
        assert narrowed >= 5

    def test_sublattice_fields(self):
        rng = random.Random(29)
        for spec, alpha, _, _, _, n_max in _seeded_cases(rng, (-5, -6, -10, -15), 2, 5000):
            self._same(alpha, spec, min(n_max, 4))

    def test_tuple_sweeps_are_the_level_points_below_the_tuple(self):
        # in fields that are not UFDs most tuples give non-principal
        # lattices, swept as the sublattice sub of (1/delta) O_K
        rng = random.Random(31)
        non_principal = found = 0
        for d in (-5, -6, -10, -15):
            field = make_field(d)
            for _ in range(6):
                beta = field.element(rng.randint(-3, 3), rng.randint(-2, 2))
                alpha = field.element(rng.randint(-3, 3), rng.randint(-2, 2))
                if beta.norm() < 3 or alpha.norm() < 2:
                    continue
                digits = {field.element(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(5)}
                if not 2 <= len(digits) < beta.norm():  # sigma < 2: no area
                    continue
                spec = qc.ifs_new(beta, sorted(digits, key=lambda a: (a.x, a.y)))
                level = 2
                fact = qc.factor_element(alpha)
                every = qc.enumerate_level(level, alpha, spec, cap=10**7)
                for exps in itertools.product(*(range(level * b + 1) for b in fact.exponents)):
                    got = qc.enumerate_level(level, alpha, spec, cap=10**7, exponents=exps)
                    want = tuple(
                        p for p in every if all(a <= b for a, b in zip(p.exponents, exps))
                    )
                    assert got == want
                    non_principal += not _lattice(fact, exps).sub.is_unit()
                    found += len(got)
        assert non_principal >= 10 and found >= 50

    def test_exponents_outside_the_level_rejected(self, gauss, cantor):
        with pytest.raises(ValueError):
            qc.enumerate_level(2, gauss.element(2), cantor, exponents=(5,))


class TestFullIntersection:
    def test_bounded_wall(self, gauss, cantor):
        rep = qc.full_intersection(gauss.element(2), cantor, mode="bounded", n_max=4)
        assert _values(rep.points) == _frac_values(gauss, WALL_D2)
        assert rep.certified_n0 is not None
        assert not rep.exhausted  # n_max is far below n0

    def test_certified_wall_falls_back_on_cap(self, gauss, cantor):
        # survivor (20,) is the level-10 lattice, of cost 384: 2^6 balls of
        # 6 rows and points each
        rep = qc.full_intersection(gauss.element(2), cantor, mode="certified", cap=10**4)
        assert rep.certified_n0 == 44
        assert rep.level == rep.certified_n0
        assert rep.exhausted
        assert rep.survivors == ((20,),)
        assert rep.fallback == ()
        assert _values(rep.points) == _frac_values(gauss, WALL_D2)
        # under a cap below 384 it sweeps the largest level that fits instead
        rep = qc.full_intersection(gauss.element(2), cantor, mode="certified", cap=200)
        assert rep.certified_n0 is not None
        assert rep.level < rep.certified_n0
        assert not rep.exhausted
        assert [(s.exponents, s.cost) for s in rep.fallback] == [((20,), 384)]
        assert rep.swept[-1].swept and rep.swept[-1].exponents == (2 * rep.level,)
        assert rep.swept[-1].cost <= 200
        assert _values(rep.points) == _frac_values(gauss, WALL_D2)

    def test_certified_wall_ten_exhausts(self, gauss, cantor):
        rep = qc.full_intersection(gauss.element(10), cantor, mode="certified")
        assert rep.exhausted and rep.level == rep.certified_n0 == 282
        assert rep.survivors == ((14, 4, 4), (18, 3, 3), (20, 2, 2), (28, 1, 1))
        assert all(s.swept for s in rep.swept)
        assert _values(rep.points) == _frac_values(gauss, WALL_D10)

    def test_certified_case_two_names_the_skipped_survivor(self, gauss, gaussian_four):
        alpha = gauss.element(-4, 1)
        rep = qc.full_intersection(alpha, gaussian_four, mode="certified", cap=10**6)
        assert rep.certified_n0 == 109 and not rep.exhausted
        lattice = _lattice(rep.preconditions.alpha_factorization, (12,))
        assert [(s.exponents, s.cost) for s in rep.fallback] == [
            ((12,), _scan_plan(gaussian_four, lattice))
        ]
        assert rep.points == qc.enumerate_level(rep.level, alpha, gaussian_four, cap=10**6)

    def test_bounded_exhausts_once_its_box_reaches_n0(self, gauss, cantor):
        # at n_max*b >= n0 - 1 the survivor search covers the certified box,
        # so the run sweeps the certified survivors; one level lower it does
        # not, even where (Wall D2 at 21) the survivors happen to agree
        for alpha, edge in ((gauss.element(2), 22), (gauss.element(10), 281)):
            cert = qc.full_intersection(alpha, cantor, mode="certified")
            at = qc.full_intersection(alpha, cantor, mode="bounded", n_max=edge)
            assert at.exhausted and at.level == edge
            assert (at.survivors, at.points) == (cert.survivors, cert.points)
            below = qc.full_intersection(alpha, cantor, mode="bounded", n_max=edge - 1)
            assert not below.exhausted

    def test_bounded_over_cap_survivor_raises(self, gauss, cantor):
        with pytest.raises(CapExceededError) as err:
            qc.full_intersection(gauss.element(2), cantor, mode="bounded", n_max=22, cap=200)
        # the cost of survivor (20,)
        assert err.value.estimate == 384

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
