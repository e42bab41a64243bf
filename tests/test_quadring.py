import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadcantor as qc
from quadcantor import FieldElement, FieldError, ParseError, QuadInt, make_field

COORD = st.integers(min_value=-(2**40), max_value=2**40)
SMALL = st.integers(min_value=-50, max_value=50)
FIELDS = [make_field(d) for d in (-1, -2, -3, -5, -7, -11)]


class TestMakeField:
    def test_gauss(self):
        f = make_field(-1)
        assert f.s == 0 and f.disc == -4

    def test_eisenstein(self):
        f = make_field(-3)
        assert f.s == 1 and f.disc == -3

    @pytest.mark.parametrize("bad", [-4, -8, -9, -12, 0, 1, 5])
    def test_rejects(self, bad):
        with pytest.raises(FieldError):
            make_field(bad)

    @pytest.mark.parametrize("bad", [-1.0, -3.0, True, "-1"])
    def test_d_that_is_no_int_raises(self, bad):
        # make_field(-3.0) would equal make_field(-3) and compute in floats
        with pytest.raises(TypeError):
            make_field(bad)

    @pytest.mark.parametrize("coords", [(1.5,), (1, 1.0), (True,), (1, False), (1, "1")])
    def test_element_coordinate_that_is_no_int_raises(self, coords):
        # make_field(-1).element(1.5) would have the norm 2.25
        with pytest.raises(TypeError):
            make_field(-1).element(*coords)


class TestArith:
    def test_gauss_product(self, gauss):
        assert gauss.element(1, 1) * gauss.element(1, -1) == gauss.element(2)

    def test_eisenstein_omega_square(self, eisenstein):
        # minimal polynomial w^2 = w - 1
        assert eisenstein.omega * eisenstein.omega == eisenstein.element(-1, 1)

    def test_sqrt5_omega_square(self):
        f = make_field(-5)
        assert f.omega * f.omega == f.element(-5)

    def test_mixed_fields_rejected(self, gauss, eisenstein):
        with pytest.raises(FieldError):
            gauss.one + eisenstein.one

    def test_two_specs_of_one_field_interoperate(self):
        # the identity fast path must not be the only way two fields agree
        f, g = make_field(-1), make_field(-1)
        assert f is not g
        a, b = f.element(2, 3), g.element(-1, 5)
        assert a + b == f.element(1, 8) and b + a == g.element(1, 8)
        assert a * b == f.element(-17, 7) and a - b == g.element(3, -2)
        assert a == g.element(2, 3) and hash(a) == hash(g.element(2, 3))
        x, y = FieldElement(a, 3), FieldElement(g.element(4, 6), 6)
        assert x == y and x + y == FieldElement(f.element(4, 6), 3)
        assert x * 3 == a and x / y == FieldElement(g.one)

    def test_fields_with_equal_coordinates_stay_apart(self):
        f, g = make_field(-1), make_field(-2)
        a, b = f.element(2, 3), g.element(2, 3)
        assert a != b and b != a
        assert FieldElement(a, 5) != FieldElement(b, 5)
        for op in (
            lambda: a + b,
            lambda: a * b,
            lambda: b - a,
            lambda: FieldElement(a, 5) + FieldElement(b, 5),
            lambda: FieldElement(a, 5) * b,
        ):
            with pytest.raises(FieldError):
                op()

    def test_int_coercion(self, gauss):
        assert 2 * gauss.omega + 1 == gauss.element(1, 2)
        assert gauss.element(5) - 3 == gauss.element(2)
        assert 3 - gauss.element(5, 1) == gauss.element(-2, -1)
        assert gauss.element(7) == 7 and gauss.element(7, 1) != 7

    def test_pow(self, gauss):
        assert gauss.element(1, 1) ** 4 == gauss.element(-4)
        with pytest.raises(ValueError):
            gauss.element(1, 1) ** -1


class TestConjNorm:
    def test_conj_gauss(self, gauss):
        assert gauss.element(3, 2).conj() == gauss.element(3, -2)

    def test_conj_eisenstein(self, eisenstein):
        assert eisenstein.omega.conj() == eisenstein.element(1, -1)

    def test_conj_d7(self):
        f = make_field(-7)
        assert f.element(2, 3).conj() == f.element(5, -3)

    def test_norm_examples(self, gauss, eisenstein):
        assert gauss.element(2, 1).norm() == 5
        assert eisenstein.omega.norm() == 1
        assert make_field(-2).element(1, 1).norm() == 3

    @given(x=COORD, y=COORD, d_idx=st.integers(0, len(FIELDS) - 1))
    def test_norm_positive(self, x, y, d_idx):
        z = QuadInt(FIELDS[d_idx], x, y)
        n = z.norm()
        assert n >= 0
        assert (n == 0) == z.is_zero()
        if not z.is_zero():
            assert n >= 1

    @given(a=SMALL, b=SMALL, c=SMALL, e=SMALL, d_idx=st.integers(0, len(FIELDS) - 1))
    def test_norm_multiplicative(self, a, b, c, e, d_idx):
        f = FIELDS[d_idx]
        z, w = QuadInt(f, a, b), QuadInt(f, c, e)
        assert (z * w).norm() == z.norm() * w.norm()

    @given(a=SMALL, b=SMALL, c=SMALL, e=SMALL, d_idx=st.integers(0, len(FIELDS) - 1))
    def test_conj_automorphism(self, a, b, c, e, d_idx):
        f = FIELDS[d_idx]
        z, w = QuadInt(f, a, b), QuadInt(f, c, e)
        assert (z * w).conj() == z.conj() * w.conj()
        assert (z + w).conj() == z.conj() + w.conj()
        assert z.conj().conj() == z


class TestExactDiv:
    def test_examples(self, gauss):
        assert qc.exact_div(gauss.element(5), gauss.element(2, 1)) == gauss.element(2, -1)
        assert qc.exact_div(gauss.element(3), gauss.element(1, 1)) is None
        assert qc.exact_div(gauss.zero, gauss.element(1, 1)) == gauss.zero

    def test_zero_divisor_rejected(self, gauss):
        with pytest.raises(ZeroDivisionError):
            qc.exact_div(gauss.one, gauss.zero)

    @given(a=SMALL, b=SMALL, c=SMALL, e=SMALL, d_idx=st.integers(0, len(FIELDS) - 1))
    def test_divide_product(self, a, b, c, e, d_idx):
        f = FIELDS[d_idx]
        z, w = QuadInt(f, a, b), QuadInt(f, c, e)
        if not w.is_zero():
            assert qc.exact_div(z * w, w) == z


class TestEmbed:
    def test_examples(self, gauss, eisenstein):
        assert gauss.element(1, 1).to_complex() == pytest.approx(1 + 1j)
        assert eisenstein.omega.to_complex() == pytest.approx(0.5 + math.sqrt(3) / 2 * 1j)
        assert gauss.zero.to_complex() == 0j
        assert FieldElement(gauss.element(1, 2), 4).to_complex() == pytest.approx(0.25 + 0.5j)

    @given(x=COORD, y=COORD, d_idx=st.integers(0, len(FIELDS) - 1))
    @settings(max_examples=200)
    def test_embed_matches_norm(self, x, y, d_idx):
        z = QuadInt(FIELDS[d_idx], x, y)
        if z.is_zero():
            return
        assert abs(z.to_complex()) ** 2 == pytest.approx(z.norm(), rel=1e-9)


class TestParse:
    @pytest.mark.parametrize(
        "text,x,y",
        [
            ("5", 5, 0),
            ("-3", -3, 0),
            ("w", 0, 1),
            ("-w", 0, -1),
            ("2*w", 0, 2),
            ("1+2*w", 1, 2),
            ("1 - 2*w", 1, -2),
            ("-4+w", -4, 1),
            ("  7  ", 7, 0),
        ],
    )
    def test_forms(self, gauss, text, x, y):
        assert qc.parse_element(text, gauss) == gauss.element(x, y)

    @pytest.mark.parametrize(
        "bad,token",
        [("1**w", "*"), ("2x", "x"), ("", ""), ("1+", "+"), ("2 3", "3"), ("*w", "*")],
    )
    def test_errors_name_token(self, gauss, bad, token):
        with pytest.raises(ParseError) as exc:
            qc.parse_element(bad, gauss)
        assert exc.value.token == token

    def test_roundtrip(self, gauss):
        for x in range(-3, 4):
            for y in range(-3, 4):
                z = gauss.element(x, y)
                assert qc.parse_element(qc.element_text(z), gauss) == z

    def test_point(self, gauss):
        p = qc.parse_point("1/2", gauss)
        assert p.num == gauss.one and p.den == 2
        q = qc.parse_point("(-3-w)/10", gauss)
        assert q == FieldElement(gauss.element(-3, -1), 10)
        r = qc.parse_point("3/(1+w)", gauss)
        assert r == FieldElement.from_ratio(gauss.element(3), gauss.element(1, 1))

    @pytest.mark.parametrize("bad,token", [("1/0", "0"), ("1/2/3", "1/2/3")])
    def test_point_errors_name_token(self, gauss, bad, token):
        with pytest.raises(ParseError) as exc:
            qc.parse_point(bad, gauss)
        assert exc.value.token == token


class TestFieldElement:
    def test_reduction(self, gauss):
        z = FieldElement(gauss.element(4, 16), 256)
        assert z.num == gauss.element(1, 4) and z.den == 64

    def test_from_ring_denominator(self, gauss):
        z = FieldElement.from_ratio(gauss.element(1), gauss.element(1, 1))
        # 1/(1+i) = (1-i)/2
        assert z.num == gauss.element(1, -1) and z.den == 2

    def test_arithmetic(self, gauss):
        a = FieldElement(gauss.element(1), 4)
        b = FieldElement(gauss.element(1), 2)
        assert a + b == FieldElement(gauss.element(3), 4)
        assert b - a == a
        assert a * 4 == FieldElement(gauss.one)
        assert (b / a) == FieldElement(gauss.element(2))
        assert 1 - a == FieldElement(gauss.element(3), 4)
        assert -a == FieldElement(gauss.element(-1), 4)

    def test_zero_denominator(self, gauss):
        with pytest.raises(ZeroDivisionError):
            FieldElement(gauss.one, 0)
        with pytest.raises(ZeroDivisionError):
            FieldElement.from_ratio(gauss.one, gauss.zero)
        with pytest.raises(ZeroDivisionError):
            FieldElement(gauss.one, 2) / FieldElement(gauss.zero)

    def test_hash_dedup(self, gauss):
        seen = {FieldElement(gauss.element(1), 4), FieldElement(gauss.element(4), 16)}
        assert len(seen) == 1

    def test_sign_normalization(self, gauss):
        z = FieldElement(gauss.element(1), -4)
        assert z.den == 4 and z.num == gauss.element(-1)
