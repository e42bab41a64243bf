"""Canonical number systems with base theta = -n + i in the Gaussian integers.

Every Gaussian integer has a unique finite expansion in base -n + i with
digits {0, ..., n^2}; the digit at each step is read off through the residue
isomorphism Z[i]/(theta) = Z/(n^2+1), which sends i to n.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapExceededError, FieldError
from .quadring import FieldElement, QuadInt, exact_div, make_field

_GAUSS = make_field(-1)


class CnsBasis(NamedTuple):
    n: int
    theta: QuadInt
    digit_count: int  # n^2 + 1 = N(theta)


def cns_basis(n: int) -> CnsBasis:
    if n < 1:
        raise ValueError("n must be a positive integer")
    theta = QuadInt(_GAUSS, -n, 1)
    return CnsBasis(n=n, theta=theta, digit_count=n * n + 1)


def expand(gamma: QuadInt, basis: CnsBasis) -> list[int]:
    """Digits of gamma in base theta, least significant first."""
    if gamma.field != _GAUSS:
        raise FieldError("canonical number system expansion needs d = -1")
    modulus = basis.digit_count
    step_cap = 64 + 4 * gamma.norm().bit_length()
    digits: list[int] = []
    cur = gamma
    steps = 0
    while not cur.is_zero():
        digit = (cur.x + cur.y * basis.n) % modulus
        digits.append(digit)
        quotient = exact_div(cur - digit, basis.theta)
        if quotient is None:
            raise ArithmeticError("digit extraction produced a non-divisible step")
        cur = quotient
        steps += 1
        if steps > step_cap:
            raise ArithmeticError(
                f"expansion of {gamma} did not terminate within {step_cap} steps"
            )
    return digits


def evaluate(digits, basis: CnsBasis) -> QuadInt:
    """Exact Horner evaluation of a digit string, least significant first."""
    acc = _GAUSS.zero
    for digit in reversed(list(digits)):
        if not 0 <= digit < basis.digit_count:
            raise ValueError(f"digit {digit} out of range 0..{basis.digit_count - 1}")
        acc = acc * basis.theta + digit
    return acc


def dyadic_alpha_description(n: int, ell: int, cap: int = 10**7) -> set[FieldElement]:
    """Finite truncation of D_alpha for alpha = -n + i: sums of xi_k alpha^k
    over -ell <= k <= ell with digits in {0, ..., n^2}."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    basis = cns_basis(n)
    width = 2 * ell + 1
    count = basis.digit_count**width
    if count > cap:
        raise CapExceededError(
            f"{count} digit strings exceed cap {cap}", estimate=count, cap=cap
        )
    alpha = basis.theta
    alpha_ell = alpha**ell
    out: set[FieldElement] = set()

    def rec(pos: int, acc: QuadInt) -> None:
        if pos == width:
            out.add(FieldElement.from_ratio(acc, alpha_ell))
            return
        for digit in range(basis.digit_count):
            rec(pos + 1, acc * alpha + digit)

    rec(0, _GAUSS.zero)
    return out
