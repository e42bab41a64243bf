import math

import pytest

import quadcantor as qc
from quadcantor import CapExceededError, FieldError, make_field


@pytest.fixture(scope="module")
def base2():
    return qc.cns_basis(2)


class TestExpand:
    def test_worked_value(self, gauss, base2):
        assert qc.expand(gauss.element(5), base2) == [0, 1, 3, 1]

    def test_base_itself(self, gauss, base2):
        assert qc.expand(base2.theta, base2) == [0, 1]

    def test_zero(self, gauss, base2):
        assert qc.expand(gauss.zero, base2) == []

    def test_wrong_field_rejected(self, base2):
        other = make_field(-3)
        with pytest.raises(FieldError):
            qc.expand(other.element(5), base2)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            qc.cns_basis(0)


class TestEvaluate:
    def test_inverse_of_worked_value(self, gauss, base2):
        assert qc.evaluate([0, 1, 3, 1], base2) == gauss.element(5)

    def test_empty(self, gauss, base2):
        assert qc.evaluate([], base2) == gauss.zero

    def test_single_digit(self, gauss, base2):
        for k in range(base2.digit_count):
            assert qc.evaluate([k], base2) == gauss.element(k)

    def test_out_of_range_rejected(self, base2):
        with pytest.raises(ValueError):
            qc.evaluate([5], base2)


class TestRoundTrip:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_box_roundtrip_and_injectivity(self, gauss, n):
        basis = qc.cns_basis(n)
        seen = {}
        for a in range(-12, 13):
            for b in range(-12, 13):
                gamma = gauss.element(a, b)
                digits = tuple(qc.expand(gamma, basis))
                assert qc.evaluate(digits, basis) == gamma
                assert digits not in seen
                seen[digits] = gamma

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_length_bound(self, gauss, n):
        basis = qc.cns_basis(n)
        for a in range(-12, 13):
            for b in range(-12, 13):
                gamma = gauss.element(a, b)
                digits = qc.expand(gamma, basis)
                bound = 4 * math.log(gamma.norm() + 2) / math.log(n * n + 1) + 2
                assert len(digits) <= bound


class TestDyadicDescription:
    def test_level_zero(self, gauss):
        pts = qc.dyadic_alpha_description(2, 0)
        assert pts == {qc.FieldElement(gauss.element(k)) for k in range(5)}

    def test_level_one_count_and_integrality(self, gauss):
        pts = qc.dyadic_alpha_description(2, 1)
        assert len(pts) == 125
        alpha = gauss.element(-2, 1)
        for z in pts:
            scaled = z * alpha
            assert scaled.is_integral()

    def test_tuple_sums_bounded(self, gauss):
        alpha = gauss.element(-2, 1)
        fact = qc.factor_element(alpha)
        ell = 1
        for z in qc.dyadic_alpha_description(2, ell):
            exps = qc.minimal_tuple(z, fact)
            assert sum(exps) <= ell * len(fact.factors)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            qc.dyadic_alpha_description(3, 4, cap=10**4)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            qc.dyadic_alpha_description(2, -1)
