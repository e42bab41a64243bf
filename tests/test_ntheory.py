"""Factoring and prime splitting against sympy as an independent oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadcantor as qc
from quadcantor import CapExceededError, make_field, ntheory
from quadcantor.ntheory import factor_int

FIELDS = (-1, -2, -3, -7, -11)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(("one", "prime power", "two primes", "mixed")),
    a=st.integers(2, 10**9),
    b=st.integers(2, 10**9),
    k=st.integers(1, 4),
    small=st.integers(1, 10**5),
)
def test_factor_int_matches_sympy(kind, a, b, k, small):
    sympy = pytest.importorskip("sympy")
    p, q = sympy.prevprime(a + 1), sympy.prevprime(b + 1)
    n = {
        "one": 1,
        "prime power": p**k,
        "two primes": p * q,
        "mixed": small * p * q ** min(k, 2),
    }[kind]
    assert factor_int(n) == sympy.factorint(n)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from(FIELDS), a=st.integers(2, 5000))
def test_factor_rational_prime_matches_sympy(d, a):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.numberfields.primes import prime_decomp

    p = sympy.prevprime(a + 1)
    field = make_field(d)
    x = sympy.symbols("x")
    # minimal polynomial of w over Q
    if d % 4 == 1:
        minpoly = sympy.Poly(x**2 - x + (1 - d) // 4, x)
    else:
        minpoly = sympy.Poly(x**2 - d, x)
    expected = sorted((P.e, P.f) for P in prime_decomp(p, T=minpoly))
    splitting = qc.factor_rational_prime(field, p)
    assert sorted((P.e, P.f) for P in splitting.primes) == expected


def test_factor_int_rejects_zero():
    with pytest.raises(ValueError):
        factor_int(0)


@pytest.mark.parametrize("n", [-7, 0, 1])
def test_is_prime_below_two(n):
    assert not ntheory.is_prime(n)


@pytest.mark.parametrize(
    "a,p,want",
    [
        (0, 2, 0),
        (1, 2, 1),
        (3, 2, 1),  # modulo 2 every residue is its own root
        (3, 7, None),  # 3 is no square modulo 7
        (5, 13, None),  # nor 5 modulo 13, where Tonelli-Shanks would run
    ],
)
def test_sqrt_mod_at_two_and_at_non_residues(a, p, want):
    assert ntheory.sqrt_mod(a, p) == want


def test_rho_budget_names_the_cofactor(monkeypatch):
    monkeypatch.setattr(ntheory, "_RHO_STEP_BUDGET", 64)
    n = 1000033 * 1000037
    with pytest.raises(CapExceededError) as exc:
        factor_int(12 * n)
    assert str(n) in str(exc.value)
    assert exc.value.cap == 64 and exc.value.estimate > 64
    monkeypatch.undo()  # the same cofactor splits within the real budget
    assert factor_int(12 * n) == {2: 2, 3: 1, 1000033: 1, 1000037: 1}


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_padic_valuation_at_the_gallop_edges(p):
    # k runs over the gallop's edges 2^j - 1, 2^j, 2^j + 1; no cofactor is
    # divisible by p
    for k in {0, 1} | {(1 << j) + e for j in range(1, 8) for e in (-1, 0, 1)}:
        for cofactor in (1, -1, p + 1, -(2 * p + 1)):
            assert ntheory.padic_valuation(cofactor * p**k, p) == k


def test_padic_valuation_of_a_large_power():
    assert ntheory.padic_valuation(3 * 2**800, 2) == 800
    assert ntheory.padic_valuation(3 * 2**800, 3) == 1
    with pytest.raises(ValueError):
        ntheory.padic_valuation(0, 5)
