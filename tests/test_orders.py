from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from order_oracle import brute_ord_mod

import quadcantor as qc
from quadcantor import PreconditionError, make_field

FIELDS = (-1, -2, -3, -7, -11)


def _prime(field, p, root=None):
    s = qc.factor_rational_prime(field, p)
    if root is None:
        return s.primes[0]
    return next(q for q in s.primes if q.root == root)


class TestOrdMod:
    def test_three_mod_split_five(self, gauss):
        p5 = _prime(gauss, 5, root=2)
        # powers of 3 in the 5-element residue field: 3, 4, 2, 1
        assert qc.ord_mod(gauss.element(3), p5.hnf) == 4

    def test_one_plus_i_mod_three(self, gauss):
        ideal = qc.principal_ideal(gauss.element(3))
        # brute force in the 8-element unit group of the 9-element field
        assert brute_ord_mod(gauss.element(1, 1), ideal) == 8
        assert qc.ord_mod(gauss.element(1, 1), ideal) == 8

    def test_order_of_one(self, gauss):
        ideal = qc.principal_ideal(gauss.element(3, 2))
        assert qc.ord_mod(gauss.one, ideal) == 1

    def test_non_invertible_rejected(self, gauss):
        p2 = _prime(gauss, 2)
        with pytest.raises(PreconditionError):
            qc.ord_mod(gauss.element(1, 1), p2.hnf)


# Rational primes small enough that the brute-force oracle stays cheap; over
# FIELDS they split, stay inert and ramify (2 in d = -1, -2; 3, 7, 11 in the
# fields of that discriminant).
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
NORM_LIMIT = 20_000


def _draw_prime(data, field):
    p = data.draw(st.sampled_from(SMALL_PRIMES), label="p")
    return data.draw(st.sampled_from(qc.factor_rational_prime(field, p).primes))


def _check_against_brute(beta, ideal, primes):
    if any(prime.contains(beta) for prime in primes):
        with pytest.raises(PreconditionError):
            qc.ord_mod(beta, ideal)
        with pytest.raises(ArithmeticError):
            brute_ord_mod(beta, ideal)
    else:
        assert qc.ord_mod(beta, ideal) == brute_ord_mod(beta, ideal)


class TestOrdModDifferential:
    """ord_mod from the group order against the sequential oracle."""

    @pytest.mark.parametrize("d", FIELDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), x=st.integers(-40, 40), y=st.integers(-40, 40))
    def test_prime_powers(self, d, data, x, y):
        field = make_field(d)
        prime = _draw_prime(data, field)
        k = data.draw(st.integers(1, 4), label="k")
        ideal = qc.ideal_pow(prime.hnf, k)
        if ideal.norm > NORM_LIMIT:
            ideal = prime.hnf
        if data.draw(st.booleans(), label="in prime"):
            x, y = x * prime.p, y * prime.p
        _check_against_brute(field.element(x, y), ideal, [prime])

    @pytest.mark.parametrize("d", FIELDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), x=st.integers(-40, 40), y=st.integers(-40, 40))
    def test_products_of_two_primes(self, d, data, x, y):
        field = make_field(d)
        p1 = _draw_prime(data, field)
        p2 = _draw_prime(data, field)
        assume(p1 != p2)
        k1 = data.draw(st.integers(1, 2), label="k1")
        k2 = data.draw(st.integers(1, 2), label="k2")
        ideal = qc.ideal_mul(qc.ideal_pow(p1.hnf, k1), qc.ideal_pow(p2.hnf, k2))
        if ideal.norm > NORM_LIMIT:
            ideal = qc.ideal_mul(p1.hnf, p2.hnf)
        _check_against_brute(field.element(x, y), ideal, [p1, p2])

    def test_kinds_covered(self):
        kinds = {
            (qc.factor_rational_prime(make_field(d), p).kind, p)
            for d in FIELDS
            for p in SMALL_PRIMES
        }
        assert {kind for kind, _ in kinds} == {"split", "inert", "ramified"}
        assert ("ramified", 2) in kinds

    @pytest.mark.parametrize("d", FIELDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), x=st.integers(-9, 9), y=st.integers(-9, 9))
    def test_stabilization_level_is_the_valuation(self, d, data, x, y):
        field = make_field(d)
        p = data.draw(st.sampled_from((2, 3, 5, 7)), label="p")
        prime = data.draw(st.sampled_from(qc.factor_rational_prime(field, p).primes))
        beta = field.element(x, y)
        assume(beta.norm() > 1 and not prime.contains(beta))
        stab = qc.stabilization(beta, prime)
        assert stab.m == brute_ord_mod(beta, qc.ideal_pow(prime.hnf, prime.e + 1))
        assert stab.n0 == qc.valuation(beta**stab.m - 1, prime)


class TestStabilization:
    def test_beta_three_at_split_five(self, gauss):
        # m = Ord mod p^2 = 20 (not 4: 3^4-1 = 80 has valuation 1 < 2);
        # 3^20 - 1 = 3486784400 = 2^4 * 5^2 * 11^2 * 61 * 1181, so n0 = 2
        p5 = _prime(gauss, 5, root=2)
        stab = qc.stabilization(gauss.element(3), p5)
        assert brute_ord_mod(gauss.element(3), qc.ideal_pow(p5.hnf, 2)) == 20
        assert (3**20 - 1) % 25 == 0 and (3**20 - 1) % 125 != 0
        assert (stab.m, stab.n0) == (20, 2)

    def test_beta_five_at_ramified_two(self, gauss):
        # 5 - 1 = 4 = -(1+i)^4, so the order is 1 already mod p^3 and n0 = 4
        p2 = _prime(gauss, 2)
        stab = qc.stabilization(gauss.element(5), p2)
        assert (stab.m, stab.n0) == (1, 4)

    def test_beta_in_prime_rejected(self, gauss):
        p3 = _prime(gauss, 3)
        with pytest.raises(PreconditionError):
            qc.stabilization(gauss.element(3), p3)

    def test_unit_beta_rejected(self, gauss):
        p5 = _prime(gauss, 5, root=2)
        with pytest.raises(PreconditionError):
            qc.stabilization(gauss.omega, p5)

    def test_level_at_least_e_plus_one(self):
        for d in (-1, -2, -7):
            field = make_field(d)
            for p in (2, 3, 5, 7):
                for prime in qc.factor_rational_prime(field, p).primes:
                    beta = field.element(3) if p != 3 else field.element(5)
                    if prime.contains(beta):
                        continue
                    stab = qc.stabilization(beta, prime)
                    assert stab.n0 >= prime.e + 1
                    ideal = qc.ideal_pow(prime.hnf, stab.n0)
                    assert brute_ord_mod(beta, ideal) == stab.m


class TestOrdPrimePower:
    def test_split_five_level_two(self, gauss):
        p5 = _prime(gauss, 5, root=2)
        assert qc.stabilization(gauss.element(3), p5).order(2) == 20
        assert brute_ord_mod(gauss.element(3), qc.ideal_pow(p5.hnf, 2)) == 20

    def test_ramified_two_level_six(self, gauss):
        p2 = _prime(gauss, 2)
        # n0 = 4, e = 2, m = 1: closed form 1 * 2^ceil(2/2) = 2
        assert qc.stabilization(gauss.element(5), p2).order(6) == 2
        assert brute_ord_mod(gauss.element(5), qc.ideal_pow(p2.hnf, 6)) == 2

    def test_at_stable_level_equals_m(self, gauss):
        p5 = _prime(gauss, 5, root=2)
        stab = qc.stabilization(gauss.element(3), p5)
        assert stab.order(stab.n0) == stab.m

    def test_nonpositive_exponent_rejected(self, gauss):
        stab = qc.stabilization(gauss.element(3), _prime(gauss, 5, root=2))
        with pytest.raises(ValueError):
            stab.order_factors(0)

    def test_closed_form_matches_brute_force(self):
        cases = 0
        for d in (-1, -2, -3, -7):
            field = make_field(d)
            for p in (2, 3, 5):
                for prime in qc.factor_rational_prime(field, p).primes:
                    for beta in (field.element(3), field.element(5), field.element(1, 1)):
                        if beta.norm() <= 1 or prime.contains(beta):
                            continue
                        stab = qc.stabilization(beta, prime)
                        if prime.norm ** (stab.n0 + 3 * prime.e) > 10**7:
                            continue
                        for n in range(1, stab.n0 + 3 * prime.e + 1):
                            closed = stab.order(n)
                            assert closed == brute_ord_mod(
                                beta, qc.ideal_pow(prime.hnf, n)
                            )
                        cases += 1
        assert cases >= 8

    def test_order_above_e_makes_no_ord_mod_call(self, gauss, monkeypatch):
        # the stabilization law covers every n > e, also e < n <= n0
        cases = []
        for beta, p, root in ((gauss.element(3), 5, 2), (gauss.element(5), 2, None)):
            prime = _prime(gauss, p, root)
            stab = qc.stabilization(beta, prime)
            ns = range(prime.e + 1, stab.n0 + 3 * prime.e + 1)
            want = [qc.ord_mod(beta, qc.ideal_pow(prime.hnf, n)) for n in ns]
            cases.append((stab, ns, want))
        assert any(stab.n0 > stab.prime.e + 1 for stab, _, _ in cases)
        calls = []
        monkeypatch.setattr(qc.orders, "ord_mod", lambda *a: calls.append(a))
        for stab, ns, want in cases:
            assert [stab.order(n) for n in ns] == want
        assert calls == []

    def test_valuation_ladder(self, gauss):
        # v(beta^(m p^k) - 1) climbs by exactly e per lifted factor p
        for beta, p, root in ((gauss.element(3), 5, 2), (gauss.element(5), 2, None)):
            prime = _prime(gauss, p, root)
            stab = qc.stabilization(beta, prime)
            for k in range(3):
                power = beta ** (stab.m * prime.p**k) - 1
                assert qc.valuation(power, prime) == stab.n0 + k * prime.e

    def test_divisibility_chain(self, gauss):
        p5 = _prime(gauss, 5, root=2)
        beta = gauss.element(3)
        prev = qc.ord_mod(beta, p5.hnf)
        for n in range(2, 5):
            cur = qc.ord_mod(beta, qc.ideal_pow(p5.hnf, n))
            assert cur % prev == 0
            prev = cur

    def test_minimality_witness(self, gauss):
        p5 = _prime(gauss, 5, root=2)
        beta = gauss.element(3)
        ideal = qc.ideal_pow(p5.hnf, 2)
        order = qc.ord_mod(beta, ideal)
        one = qc.reduce_mod(gauss.one, ideal)
        assert qc.reduce_mod(beta**order, ideal) == one
        for q in {2, 5}:  # prime divisors of 20
            assert qc.reduce_mod(beta ** (order // q), ideal) != one


class TestLowerBound:
    def test_c2_for_three_at_five(self, gauss):
        p5 = _prime(gauss, 5, root=2)
        lb = qc.c2_constant(gauss.element(3), [p5])
        # n0 = 2 at this prime, so c2 = 1/25
        assert lb.c2 == Fraction(1, 25)
        assert lb.m_exponents == (2,)

    def test_c2_for_five_at_two(self, gauss):
        p2 = _prime(gauss, 2)
        lb = qc.c2_constant(gauss.element(5), [p2])
        assert lb.c2 == Fraction(1, 16)

    def test_empty_primes_rejected(self, gauss):
        with pytest.raises(PreconditionError):
            qc.c2_constant(gauss.element(3), [])

    def test_repeated_prime_rejected(self, gauss):
        p5 = _prime(gauss, 5, root=2)
        with pytest.raises(PreconditionError):
            qc.c2_constant(gauss.element(3), [p5, p5])

    def test_zero_tuple_rejected(self, gauss):
        p5 = _prime(gauss, 5, root=2)
        lb = qc.c2_constant(gauss.element(3), [p5])
        with pytest.raises(PreconditionError):
            qc.order_lower_bound(lb, (0,))

    @pytest.mark.parametrize("exponents", [(1, 1), (), (-1,)])
    def test_wrong_length_or_negative_tuple_rejected(self, gauss, exponents):
        lb = qc.c2_constant(gauss.element(3), [_prime(gauss, 5, root=2)])
        with pytest.raises(ValueError):
            qc.order_lower_bound(lb, exponents)

    def test_single_prime_bound_value(self, gauss):
        p5 = _prime(gauss, 5, root=2)
        lb = qc.c2_constant(gauss.element(3), [p5])
        bound = qc.order_lower_bound(lb, (2,))
        assert bound == Fraction(1, 25) * 25 == 1
        assert bound <= qc.ord_mod(gauss.element(3), qc.ideal_pow(p5.hnf, 2))

    def test_ramified_prime_bound_value(self, gauss):
        # e = 2 halves the lifted exponent: ceil(4/2) = 2, bound 4/16 = 1/4
        p2 = _prime(gauss, 2)
        lb = qc.c2_constant(gauss.element(5), [p2])
        bound = qc.order_lower_bound(lb, (4,))
        assert bound == Fraction(1, 4)
        assert bound <= qc.ord_mod(gauss.element(5), qc.ideal_pow(p2.hnf, 4))

    def test_bound_below_actual_orders(self, gauss):
        beta = gauss.element(3)
        p2 = _prime(gauss, 2)
        p5 = _prime(gauss, 5, root=2)
        lb = qc.c2_constant(beta, [p2, p5])
        for tup in [(1, 0), (0, 1), (1, 1), (2, 1), (3, 2), (0, 3)]:
            ideal = qc.ideal_mul(
                qc.ideal_pow(p2.hnf, tup[0]), qc.ideal_pow(p5.hnf, tup[1])
            )
            if ideal.norm > 10**6:
                continue
            assert qc.order_lower_bound(lb, tup) <= qc.ord_mod(beta, ideal)

    def test_grouping_by_rational_prime(self, gauss):
        # both primes above 5: the bound takes the max lifted exponent once
        beta = gauss.element(3)
        pa = _prime(gauss, 5, root=2)
        pb = _prime(gauss, 5, root=3)
        lb = qc.c2_constant(beta, [pa, pb])
        got = qc.order_lower_bound(lb, (2, 1))
        assert got == lb.c2 * 5**2
