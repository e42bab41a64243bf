"""Multiplicative orders modulo ideal powers and their stabilization law.

Once the order m modulo p^(e+1) and its stabilization level n0 (the exact
prime-power valuation of beta^m - 1) are known, the order modulo every
higher power p^(n0+n) is the closed form m * p^ceil(n/e).  That closed form
also yields a fully explicit positive constant c2 = 1 / prod(p_j^{n0_j})
bounding the order modulo any product of powers of the given primes from
below.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .errors import PreconditionError
from .ideals import IdealHNF, PrimeIdeal, ideal_from_generators, ideal_mul, ideal_pow
from .ntheory import factor_int
from .quadring import QuadInt


class StabilizationData(NamedTuple):
    """Order m modulo prime^n0 together with n0 = v(beta^m - 1)."""

    prime: PrimeIdeal
    beta: QuadInt
    n0: int
    m: int

    def order_factors(self, n: int) -> tuple[int, int]:
        """(k, lift) with ord(beta mod prime^n) = k * p^lift; ``ord_mod`` only for n <= e.

        Every n > e follows the law (m, max(0, ceil((n - n0)/e))).  For
        e+1 <= n <= n0, ord(P^n) is a multiple of ord(P^(e+1)) = m, and it
        divides m because n <= n0 = v(beta^m - 1).
        """
        if n < 1:
            raise ValueError("exponent must be positive")
        if n <= self.prime.e:
            return ord_mod(self.beta, ideal_pow(self.prime.hnf, n)), 0
        return self.m, max(0, -(-(n - self.n0) // self.prime.e))

    def order(self, n: int) -> int:
        """Order of beta modulo prime^n (``order_factors``)."""
        k, lift = self.order_factors(n)
        return k * self.prime.p**lift


class LowerBoundSpec(NamedTuple):
    """Explicit constant c2 = 1/prod(p_j^m_j) for the order lower bound.

    ``stabilizations`` keeps each prime's stabilization data, from which
    the exact order modulo any power of that prime follows.
    """

    primes: tuple[PrimeIdeal, ...]
    m_exponents: tuple[int, ...]
    c2: Fraction
    stabilizations: tuple[StabilizationData, ...]


def _check_invertible(beta: QuadInt, ideal: IdealHNF) -> None:
    combined = ideal_from_generators([beta, *ideal.basis()])
    if not combined.is_unit():
        raise PreconditionError(f"{beta} is not a unit modulo {ideal}")


def _power_mod(ideal: IdealHNF):
    """``pw(x, y, k)``: the residue of (x + y*w)^k modulo the ideal.

    Square-and-multiply on raw integer pairs, reducing by the Hermite form
    (a, b, c) after every product; ``pw(1, 0, 0)`` is the residue of 1.
    """
    a, b, c = ideal.a, ideal.b, ideal.c
    s, t = ideal.field.s, ideal.field.t  # w^2 = s*w + t

    def mul(x1, y1, x2, y2):
        yy = y1 * y2
        q, y = divmod(x1 * y2 + y1 * x2 + s * yy, c)
        return (x1 * x2 + t * yy - q * b) % a, y

    def pw(x, y, k):
        rx, ry = mul(1, 0, 1, 0)
        while k:
            if k & 1:
                rx, ry = mul(rx, ry, x, y)
            k >>= 1
            if k:
                x, y = mul(x, y, x, y)
        return rx, ry

    return pw


def ord_mod(beta: QuadInt, ideal: IdealHNF) -> int:
    """Least n >= 1 with beta^n = 1 (mod ideal), from a group-order multiple.

    The exponent of (O/I)^* divides M = N(I) * prod_{p | N(I)} (p^2 - 1):
    each component (O/P^k)^* has order N(P)^(k-1) * (N(P) - 1), and N(P) - 1
    divides p^2 - 1.  Each prime q of M is then stripped from m = M while
    beta^(m/q) stays 1 (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 1.4.3), so the cost is O(log^2 M) products, not N(I).
    """
    _check_invertible(beta, ideal)
    pw = _power_mod(ideal)
    one = pw(1, 0, 0)
    bx, by = beta.x, beta.y
    factors = Counter(factor_int(ideal.norm))
    for p in list(factors):
        factors.update(factor_int(p - 1))
        factors.update(factor_int(p + 1))
    m = math.prod(q**e for q, e in factors.items())
    if pw(bx, by, m) != one:
        raise ArithmeticError("beta^M != 1 for the group-order multiple M")
    for q, e in factors.items():
        m //= q**e
        gx, gy = pw(bx, by, m)
        while (gx, gy) != one:
            gx, gy = pw(gx, gy, q)
            m *= q
    return m


def stabilization(beta: QuadInt, prime: PrimeIdeal) -> StabilizationData:
    """m = ord modulo prime^(e+1) and n0 = v(beta^m - 1) at that prime.

    n0 is found by raising the power of the prime, one factor at a time,
    while beta^m stays 1 modulo it, so beta^m itself is never built.
    """
    if prime.contains(beta):
        raise PreconditionError(f"{beta} lies in the prime {prime}")
    if beta.norm() <= 1:
        raise PreconditionError(f"{beta} must satisfy |beta| > 1")
    n0 = prime.e + 1
    power = ideal_pow(prime.hnf, n0)
    m = ord_mod(beta, power)
    while True:
        power = ideal_mul(power, prime.hnf)
        pw = _power_mod(power)
        if pw(beta.x, beta.y, m) != pw(1, 0, 0):
            break
        n0 += 1
    return StabilizationData(prime=prime, beta=beta, n0=n0, m=m)


def c2_constant(beta: QuadInt, primes: list[PrimeIdeal] | tuple[PrimeIdeal, ...]) -> LowerBoundSpec:
    """Explicit lower-bound constant over the given distinct primes."""
    primes = tuple(primes)
    if not primes:
        raise PreconditionError("need at least one prime")
    if len(set(primes)) != len(primes):
        raise PreconditionError("primes must be distinct")
    stabs = tuple(stabilization(beta, p) for p in primes)
    ms = tuple(s.n0 for s in stabs)
    den = math.prod(p.p**m for p, m in zip(primes, ms))
    return LowerBoundSpec(
        primes=primes, m_exponents=ms, c2=Fraction(1, den), stabilizations=stabs
    )


def order_lower_bound(spec: LowerBoundSpec, exponents: tuple[int, ...]) -> Fraction:
    """Exact value c2 * prod_p p^max{ceil(n_j/e_j) : p_j = p} for the tuple."""
    if len(exponents) != len(spec.primes):
        raise ValueError("tuple length must match the prime list")
    if any(n < 0 for n in exponents):
        raise ValueError("exponents must be nonnegative")
    if not any(exponents):
        raise PreconditionError("the zero tuple has no order bound")
    by_p: dict[int, int] = {}
    for prime, n in zip(spec.primes, exponents):
        lifted = -(-n // prime.e)  # ceil(n/e)
        by_p[prime.p] = max(by_p.get(prime.p, 0), lifted)
    return spec.c2 * math.prod(p**m for p, m in by_p.items())
