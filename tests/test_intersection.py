import dataclasses
import functools
import itertools
import math
import random
import re
import time
from bisect import bisect_left
from fractions import Fraction

import pytest
from order_oracle import brute_ord_mod

import quadcantor as qc
from quadcantor import CapExceededError, FieldElement, PreconditionError, make_field
from quadcantor import intersection
from quadcantor.fractal import _ball_candidates, covering_exponent
from quadcantor.ideals import prime_power_product
from quadcantor.quadring import mul_matrix
from quadcantor.intersection import (
    _plan,
    _shortest,
    survivors,
)


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

    @staticmethod
    def hnf_sum_report(alpha, spec):
        """The report with both coprimality flags decided by the HNF of the
        ideal sum, (a) + (b) = O_K, as the oracle."""

        def coprime_by_sum(a, b):
            return qc.ideal_from_generators([a, b]).is_unit()

        coprime = coprime_by_sum(alpha, spec.beta)
        eligible = spec.field.d in qc.UFD_FIELDS and coprime_by_sum(alpha, alpha.conj())
        n, beta_norm = len(spec.digits), spec.beta.norm()
        case_i = coprime and n * n < beta_norm
        case_ii = coprime and eligible and n < beta_norm
        return qc.PreconditionReport(
            alpha=alpha,
            alpha_beta_coprime=coprime,
            case_ii_eligible=eligible,
            alpha_factorization=qc.factor_element(alpha),
            sigma=qc.similarity_dimension(spec),
            case_i_applicable=case_i,
            case_ii_applicable=case_ii,
            applicable_case="case_ii" if case_ii else ("case_i" if case_i else None),
        )

    def test_flags_from_the_factorization_match_the_ideal_sums(self):
        # seeded pairs in UFD and non-UFD fields; a fifth of the alphas share
        # beta's primes, and each field also gets a rational prime of each
        # kind as alpha: a ramified one, an inert one, and a split one, both
        # of whose primes divide it (5 in Z[i], 2 for d = -7)
        rng = random.Random(34)
        seen = set()
        pairs = 0
        for d in (-1, -2, -3, -5, -6, -7, -11, -15, -19, -43):
            field = make_field(d)
            kinds = {}
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
                kinds.setdefault(qc.factor_rational_prime(field, p).kind, p)
            built_in = [(kind, field.element(p)) for kind, p in kinds.items()]
            assert len(built_in) == 3
            for _ in range(8):
                beta = field.zero
                while beta.norm() < 2:
                    beta = field.element(rng.randint(-6, 6), rng.randint(-4, 4))
                digits = {field.zero}
                for _ in range(rng.randint(1, 4)):
                    digits.add(field.element(rng.randint(-3, 3), rng.randint(-2, 2)))
                if len(digits) < 2:
                    digits.add(field.one)
                spec = qc.ifs_new(beta, sorted(digits, key=lambda a: (a.x, a.y)))
                alphas = list(built_in)
                while len(alphas) < 26:
                    alpha = field.element(rng.randint(-12, 12), rng.randint(-8, 8))
                    kind = "random"
                    if rng.random() < 0.2:
                        alpha, kind = alpha * beta, "times beta"
                    if alpha.norm() >= 2:
                        alphas.append((kind, alpha))
                for kind, alpha in alphas:
                    rep = qc.preconditions(alpha, spec)
                    assert rep == self.hnf_sum_report(alpha, spec), (alpha, spec)
                    seen.add((kind, d in qc.UFD_FIELDS, rep.alpha_beta_coprime, rep.case_ii_eligible))
                    pairs += 1
        assert pairs >= 2000
        # every kind of alpha met in a UFD and outside one, and the flags
        # took each value the field allows
        for ufd in (True, False):
            for kind in ("ramified", "inert", "split", "random", "times beta"):
                assert any(k == kind and u == ufd for k, u, _, _ in seen)
        assert not any(c for k, _, c, _ in seen if k == "times beta")
        assert {(c, e) for _, u, c, e in seen if u} == set(itertools.product((True, False), repeat=2))
        assert {(c, e) for _, u, c, e in seen if not u} == {(True, False), (False, False)}


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

    def test_under_reported_valuation_fails_the_self_check(self, gauss, monkeypatch):
        fact = qc.factor_element(gauss.element(10))
        num = gauss.element(1, 1)
        z = FieldElement(num, 10)
        assert qc.minimal_tuple(z, fact) == (1, 1, 1)
        real = intersection.valuation

        def low(x, prime):
            # the numerator's valuation reads one low: the tuple (2, 1, 1)
            # clears the denominator but is not minimal
            v = real(x, prime)
            return v - 1 if x == num and v else v

        monkeypatch.setattr(intersection, "valuation", low)
        with pytest.raises(ArithmeticError):
            qc.minimal_tuple(z, fact)

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

    def test_c2_that_is_no_unit_fraction_rejected(self, gauss, gaussian_four):
        rep = qc.preconditions(gauss.element(-4, 1), gaussian_four)
        lb = qc.c2_constant(gaussian_four.beta, rep.alpha_factorization.primes)
        with pytest.raises(ArithmeticError):
            qc.certified_bound(rep, qc.covering_constants(gaussian_four), lb._replace(c2=Fraction(2, 17)))

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


    @staticmethod
    def _widen_below(monkeypatch, top):
        """Widen every log2 bracket asked for below ``top`` bits by 1/64,
        too wide to separate the floors; return the precisions asked for."""
        exact = intersection.log2_interval
        asked = []

        def widened(x, prec):
            asked.append(prec)
            lo, hi = exact(x, prec)
            if prec < top:
                return lo - Fraction(1, 64), hi + Fraction(1, 64)
            return lo, hi

        monkeypatch.setattr(intersection, "log2_interval", widened)
        return asked

    @staticmethod
    def _bound_cases(gauss, cantor, gaussian_four):
        """(report, covering, lb, n0): Wall D2 in case (i), the Gaussian
        four-digit spec in case (ii)."""
        out = []
        for spec, alpha in ((cantor, gauss.element(2)), (gaussian_four, gauss.element(-4, 1))):
            rep = qc.preconditions(alpha, spec)
            covering = qc.covering_constants(spec)
            lb = qc.c2_constant(spec.beta, rep.alpha_factorization.primes)
            out.append((rep, covering, lb, qc.certified_bound(rep, covering, lb)))
        return out

    def test_precision_doubles_until_the_brackets_separate(
        self, gauss, cantor, gaussian_four, monkeypatch
    ):
        cases = self._bound_cases(gauss, cantor, gaussian_four)
        asked = self._widen_below(monkeypatch, 256)
        for rep, covering, lb, n0 in cases:
            asked.clear()
            assert qc.certified_bound(rep, covering, lb) == n0
            assert sorted(set(asked)) == [64, 128, 256]

    def test_fallback_past_4096_bits_is_sound(self, gauss, cantor, gaussian_four, monkeypatch):
        # brackets that never separate: the larger candidate of the last
        # pass is returned, at least n0, and it still excludes its tuple
        cases = self._bound_cases(gauss, cantor, gaussian_four)
        asked = self._widen_below(monkeypatch, math.inf)
        for rep, covering, lb, n0 in cases:
            asked.clear()
            got = qc.certified_bound(rep, covering, lb)
            assert max(asked) == 4096
            assert got >= n0
            spec = cantor if rep.applicable_case == "case_i" else gaussian_four
            assert qc.tuple_is_excluded(spec, lb, rep.applicable_case, (got,))


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

    def test_level_too_deep_is_refused_unbuilt(self, gauss):
        # with no case to cut it, level 10^12 of alpha = 2 is a box whose
        # lattice has norm 2^(2*10^12): its cover depth alone is over the
        # cap, kcap = 10 as 2*3^10 <= 2^18 < 2*3^11
        spec = qc.ifs_new(gauss.element(3), [gauss.element(k) for k in range(3)])
        for level in (10**5, 10**12):
            start = time.perf_counter()
            with pytest.raises(CapExceededError) as err:
                qc.enumerate_level(level, gauss.element(2), spec)
            assert time.perf_counter() - start < 1
            assert err.value.estimate == 2 * 3**11 and err.value.cap == 1 << 18
            assert f"level-{level} sweep may touch at least {2 * 3**11} " in str(err.value)

    def test_cap_is_the_scan_cost(self, gauss, gaussian_four):
        alpha = gauss.element(-4, 1)
        cost = _plan(gaussian_four, qc.factor_element(alpha), (2,)).cost
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
        centre, r2 = fallback.disk
        assert centre == 0 and r2 == fallback.radius_sq
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
        spec = qc.ifs_new(cantor.beta, cantor.digits)
        pts = qc.enumerate_level(22, gauss.element(2), spec, cap=10**30)
        stored = sum(len(space.alive) for space in spec._spaces.values())
        assert len(pts) == 4
        assert stored <= sum(
            qc.state_count(p.value.num, p.value.den, spec) for p in pts
        )


class TestPeriodCongruence:
    @staticmethod
    def _with_period(point, m, exponents=None):
        """The point with a coding period of length m and, optionally,
        other exponents."""
        coding = qc.Coding(preperiod=(), period=(point.value.num.field.zero,) * m)
        return dataclasses.replace(
            point, coding=coding, exponents=exponents or point.exponents
        )

    def test_matches_the_power_rule(self, gauss, gaussian_four):
        # on the fixed and seeded sweep points, and on each with a longer
        # period or a raised exponent: the answer of beta^m - 1 in the ideal
        seen = set()
        for spec, alpha, level, exps in _fixed_cases(gauss, gaussian_four) + list(
            _scan_cases()
        ):
            fact = qc.factor_element(alpha)
            for pt in qc.enumerate_level(level, alpha, spec, cap=10**6, exponents=exps):
                m = len(pt.coding.period)
                raised = [
                    tuple(n + (i == j) for i, n in enumerate(pt.exponents))
                    for j in range(fact.ell)
                ]
                for q, tup in itertools.product((m, m + 1, 2 * m + 1), [pt.exponents, *raised]):
                    ideal = prime_power_product(spec.field, fact.primes, tup)
                    want = ideal.contains(spec.beta**q - 1)
                    variant = self._with_period(pt, q, tup)
                    assert qc.period_congruence_holds(variant, fact, spec.beta) == want
                    seen.add(want)
        assert seen == {True, False}

    def test_long_period_checks_fast(self, gauss, cantor):
        # the answer is whether the exact order divides the period length
        alpha = gauss.element(10)
        fact = qc.factor_element(alpha)
        value = FieldElement(gauss.element(1), 40)
        [pt] = [p for p in qc.enumerate_level(3, alpha, cantor) if p.value == value]
        ideal = prime_power_product(gauss, fact.primes, pt.exponents)
        order = qc.ord_mod(cantor.beta, ideal)
        assert order > 1
        multiple = 10**6 // order * order
        for m in (multiple, multiple + 1):
            long = self._with_period(pt, m)
            start = time.perf_counter()
            holds = qc.period_congruence_holds(long, fact, cantor.beta)
            assert time.perf_counter() - start < 0.25
            assert holds == (m % order == 0)


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
    plan = _plan(spec, fact, exps)
    sub = plan.sub
    conj_delta = plan.delta.conj()
    out = {}
    for x, y in intersection._candidate_numerators(spec, plan):
        g = spec.field.element(x, y)
        v = g * conj_delta
        v = spec.field.element(v.x // sub.norm, v.y // sub.norm)
        if not qc.is_member(v, plan.u, spec):
            continue
        value = FieldElement.from_ratio(g, plan.delta)
        den_pow = 0
        while not (value * alpha**den_pow).is_integral():
            den_pow += 1
        out[value] = qc.IntersectionPoint(
            value=value,
            den_pow=den_pow,
            exponents=qc.minimal_tuple(value, fact),
            coding=qc.coding_of(v, plan.u, spec),
        )
    return out


def _whole_disk_points(spec, alpha, level, exps):
    """The attractor points of the lattice prod P_j^{-n_j} (alpha^-level
    when exps is None): the points g/delta with g in ``sub`` and
    |g/delta| <= R', filtered by exact membership."""
    fact = qc.factor_element(alpha)
    if exps is None:
        exps = tuple(level * b for b in fact.exponents)
    plan = _plan(spec, fact, exps)
    r2 = spec.radius_sq
    sub = plan.sub
    rn = plan.delta.norm() * r2.numerator
    disk = set(_ball_candidates(spec.field, [(0, 0)], 1, rn, r2.denominator, (sub.a, sub.b, sub.c)))
    conj_delta = plan.delta.conj()
    out = set()
    for x, y in disk:
        g = spec.field.element(x, y)
        v = g * conj_delta
        v = spec.field.element(v.x // sub.norm, v.y // sub.norm)
        if qc.is_member(v, plan.u, spec):
            out.add(FieldElement.from_ratio(g, plan.delta))
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


def _plain_candidates(spec, plan):
    """``_candidate_numerators`` built the plain way: the distinct unscaled
    words D*W + C level by level, each taken through
    delta*conj(beta^k), then one single-ball scan per word."""
    b00, b01, b10, b11 = mul_matrix(spec.beta)
    centre, _ = spec.disk
    words = {(centre.num.x, centre.num.y)}
    digits = spec.shifted_digits
    for _ in range(plan.k):
        words = {
            (b00 * x + b01 * y + ax, b10 * x + b11 * y + ay)
            for x, y in words
            for ax, ay in digits
        }
    c00, c01, c10, c11 = mul_matrix(plan.delta * (spec.beta**plan.k).conj())
    sub = plan.sub
    out: set = set()
    for x, y in words:
        out.update(_ball_candidates(
            spec.field, [(c00 * x + c01 * y, c10 * x + c11 * y)],
            plan.den, plan.rn, plan.rd, (sub.a, sub.b, sub.c),
        ))
    return out


class TestScanPlan:
    def test_cost_bounds_the_scan(self, monkeypatch):
        touched = []

        def counting(field, centres, D, rn, rd, hnf):
            # one single-centre scan per ball of the batch
            for centre in centres:
                ball = set(_ball_candidates(field, [centre], D, rn, rd, hnf))
                # rows that yielded points plus the points themselves
                touched.append(len({y for _, y in ball}) + len(ball))
                yield from ball

        monkeypatch.setattr(intersection, "_ball_candidates", counting)
        for spec, alpha, _, exps in _scan_cases():
            beta = spec.beta
            plan = _plan(spec, qc.factor_element(alpha), exps)
            k, cost = plan.k, plan.cost
            # k is the least depth whose balls, scaled by delta, have
            # squared radius <= N(sub)
            need = plan.u * spec.disk[1]
            assert beta.norm() ** k >= need
            assert k == 0 or beta.norm() ** (k - 1) < need
            touched.clear()
            intersection._candidate_numerators(spec, plan)
            assert touched  # the wrapper saw every ball
            assert len(touched) <= len(spec.digits) ** k
            assert sum(touched) <= cost

    def test_scaled_word_tree_matches_the_plain_one(self, gauss, cantor, gaussian_four):
        # the words built already scaled, with the last level fused into the
        # scan, against scaling each plain word: the seeded specs, the
        # sweep-planar plan and Wall D2 up to level 22
        cases = [(spec, qc.factor_element(alpha), exps) for spec, alpha, _, exps in _scan_cases()]
        cases.append((gaussian_four, qc.factor_element(gauss.element(-4, 1)), (3,)))
        wall = qc.factor_element(gauss.element(2))
        cases += [(cantor, wall, (2 * level,)) for level in (0, 1, 4, 10, 22)]
        depths = set()
        for spec, fact, exps in cases:
            plan = _plan(spec, fact, exps)
            got = intersection._candidate_numerators(spec, plan)
            assert got == _plain_candidates(spec, plan)
            depths.add(min(plan.k, 3))
        assert depths == {0, 1, 2, 3}


def _brute_ball(field, X, Y, D, rn, rd, ideal=None):
    """The (x, y) with |x + y*w - (X + Y*w)/D|^2 <= rn/rd, in ``ideal`` if
    given, by a scan of the square around the centre."""
    # |x - X/D| and |y - Y/D| are at most 2*radius inside the ball
    reach = 2 * (math.isqrt(rn // rd) + 1) + 2
    want = set()
    for x in range(X // D - reach, X // D + reach + 1):
        for y in range(Y // D - reach, Y // D + reach + 1):
            gap = field.element(D * x - X, D * y - Y)
            if Fraction(gap.norm(), D * D) <= Fraction(rn, rd) and (
                ideal is None or ideal.contains(field.element(x, y))
            ):
                want.add((x, y))
    return want


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
                got = set(_ball_candidates(field, [(X, Y)], D, rn, rd, (1, 0, 1)))
                want = _brute_ball(field, X, Y, D, rn, rd)
                assert got == want
                kept += len(want)
        assert kept > 0

    def test_batch_is_the_union_of_its_balls(self):
        # one scan over many centres, overlapping and repeated ones among
        # them, on the ring and on ideals
        rng = random.Random(13)
        shared = 0
        for d in (-1, -3, -5, -7, -15):
            field = make_field(d)
            for _ in range(12):
                z = field.element(rng.randint(1, 4), rng.randint(-2, 2))
                ideal = qc.ideal_from_generators([z, field.element(rng.randint(1, 5))])
                D = rng.randint(1, 6)
                rn, rd = rng.randint(1, 90), rng.randint(1, 4)
                centres = [(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(6)]
                centres.append(centres[0])
                for hnf, lat in (((1, 0, 1), None), ((ideal.a, ideal.b, ideal.c), ideal)):
                    got = set(_ball_candidates(field, iter(centres), D, rn, rd, hnf))
                    balls = [_brute_ball(field, X, Y, D, rn, rd, lat) for X, Y in centres]
                    assert got == set().union(*balls)
                    shared += sum(map(len, balls)) > len(got)
        assert shared > 0


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
                got = set(_ball_candidates(field, [(X, Y)], D, rn, rd, (ideal.a, ideal.b, ideal.c)))
                want = _brute_ball(field, X, Y, D, rn, rd, ideal)
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
            spec = qc.ifs_new(field.element(3), [field.element(0), field.element(1)])
            lat = _plan(spec, fact, exps)
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


def _oracle_survivors(spec, report, n_max):
    """Maximal tuples of the box that brute-force orders do not exclude.

    u_norm comes from the tuple's ideal: its least positive integer (the
    Hermite form's a) squared in case (i), its norm in case (ii).
    """
    fact = report.alpha_factorization
    field = spec.field
    kept, by_max = [], []
    for n in itertools.product(*(range(n_max * b + 1) for b in fact.exponents)):
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
            want, by_max = _oracle_survivors(spec, report, n_max)
            assert list(survivors(report, spec, lb, n_max)[0]) == want
            excluded += want != [tuple(n_max * b for b in report.alpha_factorization.exponents)]
            lcm_needed += by_max != want
        # the cases exercise exclusion, and the lcm beyond the largest order
        assert excluded >= 10 and lcm_needed >= 2

    def test_step_table_reads_the_period_bound(self):
        # A ** bisect_left(highs, u) is period_bound at every u up to the
        # limit: all small u, each step H_k and the u just above it
        rng = random.Random(5)
        cases = []
        for spec, _, report, lb, _, _ in _seeded_cases(rng, (-1, -2, -3, -7, -11), 3, 3000):
            case = report.applicable_case
            limit, highs = intersection._u_limit(spec, lb, case)
            us = set(range(1, min(limit, 3000) + 1)) | {limit}
            us |= {h + e for h in highs for e in (0, 1) if 1 <= h + e <= limit}
            for u in us:
                want = qc.period_bound(spec, intersection._u_norm(case, u))
                assert len(spec.digits) ** bisect_left(highs, u) == want
            cases.append(case)
        assert cases.count("case_i") >= 3 and cases.count("case_ii") >= 3

    def test_u_limit_matches_recomputed_powers(self):
        # the loop that rebuilt N(beta)^k and A^k from scratch at each step
        def u_limit_by_powers(spec, lb, case):
            r2 = spec.radius_sq
            a = len(spec.digits)
            b = spec.beta.norm()
            limit, highs = 0, []
            while not highs or highs[-1] < lb.c2.denominator * a ** len(highs):
                k = len(highs)
                y = b**k * r2.denominator // (9 * r2.numerator)
                highs.append(y if case == "case_ii" else math.isqrt(y))
                limit = max(limit, min(highs[k], lb.c2.denominator * a**k))
            return limit, highs

        rng = random.Random(67)
        fields = (-1, -2, -3, -7, -11)
        cases = []
        for spec, _, report, lb, _, _ in itertools.chain(
            _seeded_cases(rng, fields, 3, 3000),
            _seeded_cases(rng, fields, 2, 3000, split=True),
        ):
            case = report.applicable_case
            got = intersection._u_limit(spec, lb, case)
            assert got == u_limit_by_powers(spec, lb, case)
            cases.append(case)
        assert cases.count("case_i") >= 3 and cases.count("case_ii") >= 3

    def test_u_limit_bounds_what_c2_keeps(self):
        # every u above the limit is excluded by the c2 bound alone
        rng = random.Random(5)
        checked = 0
        for spec, _, report, lb, _, _ in _seeded_cases(rng, (-1, -2, -3, -7, -11), 2, 3000):
            case = report.applicable_case
            limit, _ = intersection._u_limit(spec, lb, case)
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
            assert list(survivors(report, cantor, lb, n0)[0]) == want

    def test_three_rational_primes(self, gauss, cantor):
        # 70 = (1+i)^2 (2+i)(2-i) 7 up to a unit: n0 = 497 over ell = 4,
        # searched by the walk, which stops raising an exponent once u is
        # above ``_u_limit``, in well under a second
        report = qc.preconditions(gauss.element(70), cantor)
        lb = qc.c2_constant(cantor.beta, report.alpha_factorization.primes)
        n0 = qc.certified_bound(report, qc.covering_constants(cantor), lb)
        start = time.perf_counter()
        found, _ = survivors(report, cantor, lb, n0)
        assert time.perf_counter() - start < 5
        assert n0 == 497 and len(found) == 13
        assert (28, 1, 1, 1) in found and max(sum(n) for n in found) < 40

    @pytest.mark.parametrize(
        "d, beta, digits, alpha, n0, want",
        [
            # 2 ramified, 3 and 11 split, one prime over each in alpha
            (-2, (3, 4), [(0, 1), (1, -1), (1, 0)], (-8, -1), 260, [
                (2, 3, 3), (2, 8, 0), (6, 2, 3), (6, 7, 0), (8, 5, 2),
                (10, 3, 2), (12, 6, 1), (14, 2, 2), (14, 4, 1), (16, 4, 0),
                (18, 3, 1), (20, 2, 1), (26, 2, 0),
            ]),
            # 6 = 2 * 3: 2 inert, and both primes over 3, so m_3 is the
            # larger of their exponents
            (-11, (-1, -1), [(-1, 1), (0, -1)], (6, 0), 525, [
                (3, 31, 32), (7, 30, 31), (9, 28, 29), (11, 26, 27),
                (13, 24, 25), (18, 23, 24), (20, 21, 22), (22, 19, 20),
                (26, 18, 19), (28, 16, 17), (30, 14, 15), (32, 12, 13),
                (37, 11, 12), (39, 9, 10), (41, 7, 8), (45, 6, 7), (47, 4, 5),
                (49, 2, 3),
            ]),
        ],
    )
    def test_three_primes_outside_gaussian_integers(self, d, beta, digits, alpha, n0, want):
        field = make_field(d)
        spec = qc.ifs_new(field.element(*beta), [field.element(*a) for a in digits])
        report = qc.preconditions(field.element(*alpha), spec)
        lb = qc.c2_constant(spec.beta, report.alpha_factorization.primes)
        assert qc.certified_bound(report, qc.covering_constants(spec), lb) == n0
        assert list(survivors(report, spec, lb, n0)[0]) == want

    def test_survivor_sums_stay_below_the_certificate(self):
        # the walk reads no n0: its kept tuples fail ``tuple_is_excluded``,
        # which every tuple of sum n0 or more passes, and with no n_max cut
        # every loop stops by the u test inside its box
        rng = random.Random(41)
        cases = []
        for spec, _, report, lb, n0, _ in itertools.chain(
            _seeded_cases(rng, (-1, -2, -3, -7, -11), 4, 3000),
            _seeded_cases(rng, (-1, -2, -3, -7, -11), 2, 3000, split=True),
        ):
            found, complete = survivors(report, spec, lb, None)
            assert complete
            assert max(sum(n) for n in found) < n0
            cases.append(report.applicable_case)
        assert cases.count("case_i") >= 3 and cases.count("case_ii") >= 3

    def test_no_case_keeps_the_whole_box(self, gauss):
        spec = qc.ifs_new(gauss.element(-2, 1), [gauss.element(k) for k in range(5)])
        report = qc.preconditions(gauss.element(10), spec)
        assert report.applicable_case is None
        assert survivors(report, spec, None, 3) == (((6, 3, 3),), False)


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
                    non_principal += not _plan(spec, fact, exps).sub.is_unit()
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

    @pytest.mark.parametrize("cap, level", [(50, 1), (100, 2), (400, 3)])
    def test_certified_fallback_sweeps_each_part_once(self, gauss, cantor, cap, level):
        # D10's four survivors all fall back under these caps, and several
        # of their parts min(s, L*b) coincide or lie below another part
        alpha = gauss.element(10)
        rep = qc.full_intersection(alpha, cantor, mode="certified", cap=cap)
        fact = rep.preconditions.alpha_factorization
        assert rep.level == level and not rep.exhausted
        assert [s.exponents for s in rep.fallback] == list(rep.survivors)
        ran = [s.exponents for s in rep.swept if s.swept]
        assert len(set(ran)) == len(ran)
        for n, m in itertools.permutations(ran, 2):
            assert not all(a <= b for a, b in zip(n, m))
        # every survivor's largest fitting part is swept or lies below a sweep
        for s in rep.survivors:
            fit = max(
                L for L in range(max(s) + 1)
                if _plan(cantor, fact, intersection._clip(s, L, fact)).cost <= cap
            )
            part = intersection._clip(s, fit, fact)
            assert any(all(a <= b for a, b in zip(part, m)) for m in ran)
        assert _values(rep.points) == _frac_values(gauss, WALL_D10)

    def test_certified_case_two_names_the_skipped_survivor(self, gauss, gaussian_four):
        # the hole drops (3,) through (12,); the survivor (2,) costs 1536, over
        # this cap, so the run falls back and names it
        alpha = gauss.element(-4, 1)
        rep = qc.full_intersection(alpha, gaussian_four, mode="certified", cap=1024)
        assert rep.certified_n0 == 109 and not rep.exhausted
        plan = _plan(gaussian_four, rep.preconditions.alpha_factorization, (2,))
        assert plan.cost == 1536
        assert [(s.exponents, s.cost) for s in rep.fallback] == [((2,), plan.cost)]
        assert rep.points == qc.enumerate_level(rep.level, alpha, gaussian_four, cap=10**6)

    def test_certified_case_two_exhausts_at_the_default_cap(self, gauss, gaussian_four):
        # the order keeps (12,); a hole of radius^2 1/578, the covering
        # radius^2 of P^-2, drops (3,) through (12,), and (2,) is swept
        rep = qc.full_intersection(gauss.element(-4, 1), gaussian_four, mode="certified")
        assert rep.exhausted and rep.level == rep.certified_n0 == 109
        assert rep.survivors == ((2,),) and rep.dropped == 10
        assert rep.swept == (intersection.Sweep((2,), 1536, True),)
        assert [str(p.value) for p in rep.points] == ["0"]
        assert rep.hole.rho_sq == Fraction(1, 578)

    def test_seeded_certified_runs_under_caps(self):
        # each run either raises for a survivor whose level-0 part is over
        # the cap and below no other part, or sweeps an antichain of fitting
        # parts that covers every survivor at the reported level, not above
        def below(n, m):
            return all(a <= b for a, b in zip(n, m))

        rng = random.Random(47)
        raised = fell = climbed = 0
        for spec, alpha, report, lb, n0, _ in _seeded_cases(
            rng, (-1, -2, -3, -7, -11), 8, 20000
        ):
            fact = report.alpha_factorization
            found, _ = survivors(report, spec, lb, None)
            costs = {}

            def cost(n):
                if n not in costs:
                    costs[n] = _plan(spec, fact, n).cost
                return costs[n]

            def parts(s):
                return [intersection._clip(s, L, fact) for L in range(max(s) + 1)]

            for cap in (4, 16, 64, 256, 1024, 4096, 16384):
                # a survivor's part is its largest fitting min(s, L*b), else
                # its level-0 part; only the parts below no other are swept
                fits = [
                    max([L for L, n in enumerate(parts(s)) if cost(n) <= cap], default=0)
                    for s in found
                ]
                want = [parts(s)[fit] for s, fit in zip(found, fits)]
                top = set(_maximal(want))
                over = [s for s, n in zip(found, want) if n in top and cost(n) > cap]
                try:
                    rep = qc.full_intersection(alpha, spec, mode="certified", cap=cap)
                except CapExceededError as err:
                    assert over and str(over[0]) in str(err)
                    assert err.estimate == cost((0,) * fact.ell)
                    raised += 1
                    continue
                assert not over
                listed = []
                for s, n in zip(found, want):
                    if n != s:
                        listed.append((s, cost(s), False))
                    if n in top and (n, cost(n), True) not in listed:
                        listed.append((n, cost(n), True))
                assert rep.swept == tuple(listed)
                ran = [s.exponents for s in rep.swept if s.swept]
                assert all(cost(n) <= cap for n in ran)
                assert len(set(ran)) == len(ran)
                assert not any(n != m and below(n, m) for n in ran for m in ran)

                def covered(level):
                    return all(
                        any(below(intersection._clip(s, level, fact), m) for m in ran)
                        for s in found
                    )

                assert covered(rep.level)
                if rep.fallback:
                    assert rep.level < n0 and not covered(rep.level + 1)
                    least = min(f for f, s, n in zip(fits, found, want) if n != s)
                    climbed += rep.level > least
                    fell += 1
                else:
                    assert rep.level == n0
                bounded = qc.full_intersection(
                    alpha, spec, mode="bounded", n_max=rep.level, cap=10**7
                )
                assert set(bounded.points) <= set(rep.points)
        assert raised >= 3 and fell >= 20 and climbed >= 1

    def test_fallback_level_is_the_largest_the_parts_cover(self, gauss, monkeypatch):
        # survivors (5, 13) ... (89, 1) fall back to five parts whose sweeps
        # cover level 6, above the least fallback level 5; levels whose
        # cover alone is over the cap are skipped without building a plan
        calls = []

        def counted(*args):
            calls.append(args[-1])
            return _plan(*args)

        monkeypatch.setattr(intersection, "_plan", counted)
        spec = qc.ifs_new(gauss.element(-1, -2), [gauss.element(0), gauss.element(2, 1)])
        rep = qc.full_intersection(gauss.element(5, 1), spec, mode="certified", cap=2**14)
        assert rep.certified_n0 == 390 and len(rep.survivors) == 9
        assert rep.level == 6
        assert [s.exponents for s in rep.swept if s.swept] == [
            (6, 6), (7, 5), (11, 4), (15, 3), (22, 1)
        ]
        assert len(calls) <= 40
        bounded = qc.full_intersection(
            gauss.element(5, 1), spec, mode="bounded", n_max=6, cap=10**7
        )
        assert set(bounded.points) <= set(rep.points)

    def test_depth_rule_matches_the_cover_depth(self, gauss):
        # the rule against the plan's own depth and its least cost, over
        # tuples on both sides of each bound and far beyond them
        rng = random.Random(71)
        cases = [(spec, report.alpha_factorization)
                 for spec, _, report, _, _, _ in _seeded_cases(rng, (-1, -2, -3, -7, -11), 4, 20000)]
        # fits; over with u built; over decided by bit lengths or kcap < 0
        counts = {"fits": 0, "built": 0, "unbuilt": 0}
        for spec, fact in cases:
            n_digits = len(spec.digits)
            for cap in (0, 1, 2, 5, 64, 4096, 2**18, 10**30):
                kcap = max((k for k in range(200) if 2 * n_digits**k <= cap), default=-1)
                limit = spec.beta.norm() ** max(kcap, 0) * spec.disk[1].denominator
                for _ in range(6):
                    n = tuple(rng.choice((0, 1, 2, 5, 40, 900)) for _ in range(fact.ell))
                    u = math.prod(p.norm**nj for p, nj in zip(fact.primes, n))
                    k = covering_exponent(spec.beta.norm(), spec.disk[1], Fraction(1, u))
                    got = intersection._over_by_depth(spec, fact, n, cap)
                    if k <= kcap:
                        assert got is None
                        assert _plan(spec, fact, n).cost >= 2 * n_digits**k
                        counts["fits"] += 1
                    else:
                        assert got == 2 * n_digits ** (kcap + 1) > cap
                        t = sum(nj * (p.norm.bit_length() - 1) for p, nj in zip(fact.primes, n))
                        counts["unbuilt" if kcap < 0 or t >= limit.bit_length() else "built"] += 1
        assert min(counts.values()) >= 20

    def test_fallback_part_matches_the_stepwise_descent(self, gauss):
        # the bisected descent against stepping the level down one at a
        # time, rerunning the cover depth at each step
        def depth(spec, fact, part):
            u = math.prod(p.norm**n for p, n in zip(fact.primes, part))
            return covering_exponent(spec.beta.norm(), spec.disk[1], Fraction(1, u))

        def stepwise(spec, fact, s, cap, cost):
            # the part, how many levels it skipped by depth, and the first
            # part whose cover alone fits
            part, deep, first = s, 0, None
            while any(part):
                fits = 2 * len(spec.digits) ** depth(spec, fact, part) <= cap
                first = first or (part if fits else None)
                if fits and cost(part) <= cap:
                    break
                deep += not fits
                part = intersection._clip(s, intersection._den_power(part, fact) - 1, fact)
            return part, deep, first

        rng = random.Random(59)
        cases = []
        for spec, _, report, lb, _, _ in _seeded_cases(rng, (-1, -2, -3, -7, -11), 4, 20000):
            cases.append((spec, report.alpha_factorization, survivors(report, spec, lb, None)[0]))
        # u*r'^2 = 64/64 = N(beta)^0 at the part (6,): its depth 0 is kcap
        # itself at caps 2 and 3, so (6,) is the first part costed there
        edge = qc.ifs_new(gauss.element(4, -3), [gauss.element(0), gauss.element(1)])
        assert edge.disk[1] == Fraction(1, 64)
        cases.append((edge, qc.factor_element(gauss.element(2)), [(20,)]))
        moved = deep = costly = 0
        for spec, fact, found in cases:
            cost = functools.cache(lambda n, spec=spec, fact=fact: _plan(spec, fact, n).cost)
            for cap in (0, 1, 2, 3, 5, 16, 64, 256, 4096, 2**16, 2**20):
                for s in found:
                    asked = []
                    part = intersection._fallback_part(
                        spec, fact, s, cap, lambda n: asked.append(n) or cost(n)
                    )
                    want, skipped, first = stepwise(spec, fact, s, cap, cost)
                    assert part == want
                    # no plan is built for a part whose cover alone is over,
                    # and the first one built is the deepest that is not
                    assert all(2 * len(spec.digits) ** depth(spec, fact, n) <= cap for n in asked)
                    assert asked[:1] == ([first] if first else [])
                    if spec is edge and cap in (2, 3):
                        assert first == (6,)
                    moved += want != s
                    deep += skipped > 1
                    costly += want != s and not skipped
        # descents of several levels by depth, and some by cost alone
        assert moved >= 50 and deep >= 10 and costly >= 3

    def test_maximal_keeps_each_undominated_tuple_once(self):
        rng = random.Random(53)
        for _ in range(200):
            ell = rng.randint(1, 3)
            tuples = [
                tuple(rng.randint(0, 3) for _ in range(ell))
                for _ in range(rng.randint(0, 12))
            ]
            assert intersection._maximal(tuples) == sorted(set(_maximal(tuples)))

    def test_bounded_exhausts_once_its_box_reaches_n0(self, gauss, cantor):
        # from the edge on, the box n_max*b no longer cuts the survivor walk,
        # so the run sweeps the certified survivors; one level lower it does
        for alpha, edge in ((gauss.element(2), 18), (gauss.element(10), 34)):
            cert = qc.full_intersection(alpha, cantor, mode="certified")
            at = qc.full_intersection(alpha, cantor, mode="bounded", n_max=edge)
            assert at.exhausted and at.level == edge
            assert (at.survivors, at.points) == (cert.survivors, cert.points)
            below = qc.full_intersection(alpha, cantor, mode="bounded", n_max=edge - 1)
            assert not below.exhausted

    def test_bounded_box_is_cut_to_the_walk(self, gauss, cantor):
        # n_max*b far above the walk's own box: the order tables are built
        # only up to the box, so the run answers at once
        start = time.perf_counter()
        rep = qc.full_intersection(gauss.element(2), cantor, mode="bounded", n_max=10**12)
        assert time.perf_counter() - start < 1
        assert rep.survivors == ((20,),) and rep.exhausted
        assert _values(rep.points) == _frac_values(gauss, WALL_D2)

    def test_seeded_bounded_exhausted_runs_find_every_point(self):
        rng = random.Random(37)
        exhausted = 0
        for spec, alpha, _, _, _, n_max in _seeded_cases(
            rng, (-1, -2, -3, -7, -11), 3, 20000
        ):
            cert = qc.full_intersection(alpha, spec, mode="certified", cap=10**6)
            for level in range(1, n_max + 1):
                rep = qc.full_intersection(alpha, spec, mode="bounded", n_max=level, cap=10**6)
                if rep.exhausted:
                    assert cert.exhausted
                    assert (rep.survivors, rep.points) == (cert.survivors, cert.points)
                    exhausted += 1
        assert exhausted >= 10

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


OTHER_FIELD_ALPHA = make_field(-2).element(2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda g, s: qc.enumerate_level(-1, g.element(2), s), ValueError,
         "level must be nonnegative"),
        (lambda g, s: qc.enumerate_level(2, OTHER_FIELD_ALPHA, s), PreconditionError,
         "alpha must lie in the spec's field"),
        (lambda g, s: qc.enumerate_level(2, g.omega, s), PreconditionError,
         "|alpha| > 1 is required"),
        (lambda g, s: qc.full_intersection(g.element(2), s, mode="bounded", n_max=-1),
         PreconditionError, "bounded mode needs n_max >= 0"),
        (lambda g, s: qc.preconditions(OTHER_FIELD_ALPHA, s), PreconditionError,
         "alpha must lie in the spec's field"),
    ],
    ids=[
        "enumerate_level-negative-level",
        "enumerate_level-other-field",
        "enumerate_level-unit-alpha",
        "full_intersection-negative-n_max",
        "preconditions-other-field",
    ],
)
def test_bad_argument_raises(call, error, message, gauss, cantor):
    with pytest.raises(error, match=re.escape(message)):
        call(gauss, cantor)
