"""Certified finite enumeration of the radix points lying on the attractor.

D_alpha is the set of field elements whose denominator divides some power of
alpha.  Writing alpha*O_K as a product of prime-ideal powers, each z in
D_alpha gets a minimal exponent tuple clearing its denominator, and two
explicit constants squeeze the coding period of any intersection point:

  - period  <  (#A)^k, the exact covering count at radius 1/(3|u|), and
  - period >= c2 * prod p^ceil(n_j/e_j), the order lower bound.

For sigma < 1 (or sigma < 2 under the unique-factorization hypotheses) the
two bounds cross at a computable level n0: every tuple with larger exponent
sum gives an empty slice, so one lattice sweep at level n0 is exhaustive.
The n0 search compares products of logarithms of rationals and is done with
rigorous dyadic interval enclosures, never bare floating point.

A level sweep scans the balls of a depth-k cylinder cover of the attractor.
Its cost, the lattice rows plus points those balls can touch, is an exact
integer bound (``_scan_plan``); the cap check and the level a capped
certified run falls back to are both decided on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError, PreconditionError
from .exactmath import Interval, log2_interval
# unused here; kept bound because bench/spans.py names them as trace sites,
# and removed together with those sites
from .exactmath import ceil_sub_sqrt, floor_add_sqrt  # noqa: F401
from .ideals import ideal_pow  # noqa: F401
from .fractal import (
    CoveringConstants,
    IFSSpec,
    bounding_radius_sq,
    covering_constants,
    period_bound,
    similarity_dimension,
)
from .ideals import (
    ElementFactorization,
    are_coprime,
    factor_element,
    prime_power_product,
    valuation,
)
from .membership import Coding, coding_of, is_member, verify_coding
from .orders import LowerBoundSpec, c2_constant, order_lower_bound
from .quadring import FieldElement, QuadInt, mul_matrix

UFD_FIELDS = frozenset({-1, -2, -3, -7, -11, -19, -43, -67, -163})
# lattice rows plus points one level sweep may touch, by ``_scan_plan``
DEFAULT_CAP = 1 << 18


@dataclass(frozen=True)
class PreconditionReport:
    """Exact evaluation of every hypothesis a finiteness certificate needs."""

    alpha: QuadInt
    alpha_beta_coprime: bool
    case_ii_eligible: bool  # field is a UFD and alpha is coprime to its conjugate
    alpha_factorization: ElementFactorization
    sigma: float
    case_i_applicable: bool
    case_ii_applicable: bool
    applicable_case: str | None  # "case_i" | "case_ii" | None


def preconditions(alpha: QuadInt, spec: IFSSpec) -> PreconditionReport:
    if alpha.field != spec.field:
        raise PreconditionError("alpha must lie in the spec's field")
    if alpha.norm() < 2:
        raise PreconditionError("|alpha| > 1 is required")
    beta = spec.beta
    coprime = are_coprime(alpha, beta)
    eligible = spec.field.d in UFD_FIELDS and are_coprime(alpha, alpha.conj())
    fact = factor_element(alpha)
    sigma = similarity_dimension(spec)
    n_digits = len(spec.digits)
    beta_norm = beta.norm()
    lt_one = n_digits * n_digits < beta_norm  # sigma < 1, exactly
    lt_two = n_digits < beta_norm  # sigma < 2, exactly
    case_i = coprime and lt_one
    case_ii = coprime and eligible and lt_two
    applicable = "case_ii" if case_ii else ("case_i" if case_i else None)
    return PreconditionReport(
        alpha=alpha,
        alpha_beta_coprime=coprime,
        case_ii_eligible=eligible,
        alpha_factorization=fact,
        sigma=sigma,
        case_i_applicable=case_i,
        case_ii_applicable=case_ii,
        applicable_case=applicable,
    )


def _scaled_into_ring(z: FieldElement, ideal) -> bool:
    """Whether z * ideal is contained in the ring of integers."""
    for g in ideal.basis():
        t = z.num * g
        if t.x % z.den or t.y % z.den:
            return False
    return True


def minimal_tuple(z: FieldElement, fact: ElementFactorization) -> tuple[int, ...]:
    """Componentwise least exponents with z * prod p_j^{n_j} inside the ring.

    Rejects z whose denominator involves primes outside the factorization,
    i.e. points not in D_alpha.  Minimality is re-verified by membership at
    the tuple and failure at each single decrement.
    """
    field = z.field
    if z.num.is_zero():
        return (0,) * fact.ell
    den_el = QuadInt(field, z.den, 0)
    exps = []
    for prime, _ in fact.factors:
        vd = valuation(den_el, prime) if z.den > 1 else 0
        vn = valuation(z.num, prime)
        exps.append(max(0, vd - vn))
    if not _scaled_into_ring(z, prime_power_product(field, fact.primes, exps)):
        raise PreconditionError(
            f"{z} is not in D_alpha for alpha = {fact.element}"
        )
    for j, n in enumerate(exps):
        if n == 0:
            continue
        smaller = [ni - 1 if i == j else ni for i, ni in enumerate(exps)]
        if _scaled_into_ring(z, prime_power_product(field, fact.primes, smaller)):
            raise ArithmeticError("valuation tuple failed the minimality check")
    return tuple(exps)


def _den_power(exponents: tuple[int, ...], fact: ElementFactorization) -> int:
    """Least N with alpha^N * z integral, from the minimal tuple."""
    out = 0
    for n, b in zip(exponents, fact.exponents):
        out = max(out, -(-n // b))
    return out


def certified_bound(
    report: PreconditionReport,
    covering: CoveringConstants,
    lb: LowerBoundSpec,
) -> int | None:
    """Smallest n0 such that every tuple with sum >= n0 misses the attractor.

    In log2 terms the defining inequality is, with a = log2(#A),
    b = log2(N(beta)), g = log2(9 N(beta) R'^2) and q = log2(1/c2):

      case (i):  n0 * (b - 2a) > 2*ell*(a*g + b*q)
      case (ii): n0 * (b - a)  >  a*g + b*q

    decided with rigorous interval enclosures of each logarithm.
    """
    case = report.applicable_case
    if case is None:
        return None
    ell = report.alpha_factorization.ell
    if lb.c2.numerator != 1:
        raise ArithmeticError("c2 must be a unit fraction")
    q_arg = Fraction(lb.c2.denominator)
    a_arg = Fraction(covering.digit_count)
    b_arg = Fraction(covering.beta_norm)
    g_arg = 9 * covering.beta_norm * covering.radius_sq_bound

    prec = 64
    hi_candidate = None
    while prec <= 4096:
        a = log2_interval(a_arg, prec)
        b = log2_interval(b_arg, prec)
        g = log2_interval(g_arg, prec)
        q = log2_interval(q_arg, prec)
        if case == "case_i":
            coeff = b - a.scale(2)
            target = (a * g + b * q).scale(2 * ell)
        else:
            coeff = b - a
            target = a * g + b * q
        if coeff.lo > 0:
            lo_floor = math.floor(target.lo / coeff.hi)
            hi_floor = math.floor(target.hi / coeff.lo)
            hi_candidate = max(1, hi_floor + 1)
            if lo_floor == hi_floor:
                return max(1, lo_floor + 1)
        prec *= 2
    # interval refinement hit the cap on a floor tie; the larger candidate
    # still satisfies the strict inequality, so the certificate stays sound
    if hi_candidate is None:
        raise ArithmeticError("could not separate the dimension gap from zero")
    return hi_candidate


def tuple_is_excluded(
    spec: IFSSpec,
    lb: LowerBoundSpec,
    case: str,
    exponents: tuple[int, ...],
) -> bool:
    """Exact bound-chain contradiction for one exponent tuple.

    True when the order lower bound strictly beats the covering state count,
    which forces the tuple's slice of D_alpha to miss the attractor.
    """
    low = order_lower_bound(lb, exponents)
    if case == "case_ii":
        u_norm = math.prod(p.p**n for p, n in zip(lb.primes, exponents))
    else:
        by_p: dict[int, int] = {}
        for prime, n in zip(lb.primes, exponents):
            by_p[prime.p] = max(by_p.get(prime.p, 0), -(-n // prime.e))
        u = math.prod(p**m for p, m in by_p.items())
        u_norm = u * u
    return low > period_bound(spec, u_norm)


@dataclass(frozen=True)
class IntersectionPoint:
    value: FieldElement
    den_pow: int
    exponents: tuple[int, ...]
    coding: Coding


@dataclass(frozen=True)
class IntersectionReport:
    points: tuple[IntersectionPoint, ...]
    preconditions: PreconditionReport
    certified_n0: int | None
    level: int
    exhausted: bool
    covering: CoveringConstants | None
    lower_bound: LowerBoundSpec | None


def _ball_candidates(
    field, X: int, Y: int, D: int, rn: int, rd: int, out: set
) -> None:
    """Add to ``out`` every (x, y) with |x + y*w - (X + Y*w)/D|^2 <= rn/rd.

    Everything sits over one common denominator, and each row y gets its
    exact chord from ``isqrt``.  With s = 2 for the half basis (s = 1
    otherwise) and a = y*D - Y, the disk test reads

      rd*(s*D*x - s*X + (s-1)*a)^2 + rd*|d|*a^2 <= budget = s^2*rn*D^2,

    so the rows are |a| <= isqrt(budget // (rd*|d|)) and each row keeps
    s*D*x in [s*X - (s-1)*a - r, s*X - (s-1)*a + r] with
    r = isqrt((budget - rd*|d|*a^2) // rd): exactly the lattice points of
    the closed ball.
    """
    s = 2 if field.half_basis else 1
    budget = s * s * rn * D * D
    rdd = rd * -field.d
    amax = math.isqrt(budget // rdd)
    sd = s * D
    for y in range(-((amax - Y) // D), (Y + amax) // D + 1):
        a = y * D - Y
        r = math.isqrt((budget - rdd * a * a) // rd)
        mid = s * X - (s - 1) * a
        out.update([(x, y) for x in range(-((r - mid) // sd), (mid + r) // sd + 1)])


def _scan_plan(spec: IFSSpec, alpha: QuadInt, level: int) -> tuple[int, int]:
    """Word depth k of the level sweep and an upper bound on its work.

    k is the least depth with N(beta)^k >= N(alpha)^level * R'^2, so each of
    the (#A)^k balls has squared radius at most 1.  The cost is (#A)^k times
    the rows plus lattice points that one closed ball of that radius can
    touch, whatever its center: in the chord quantities of
    ``_ball_candidates`` a ball spans at most 2*amax // D + 1 rows, each of
    at most 2*r // (s*D) + 1 points with r taken at a = 0.
    """
    r2 = bounding_radius_sq(spec)
    rn = alpha.norm() ** level * r2.numerator
    beta_norm = spec.beta.norm()
    k = 0
    bk_norm = 1
    while bk_norm * r2.denominator < rn:
        bk_norm *= beta_norm
        k += 1
    s = 2 if spec.field.half_basis else 1
    rd = r2.denominator * bk_norm
    budget = s * s * rn * bk_norm * bk_norm
    rows = 2 * math.isqrt(budget // (rd * -spec.field.d)) // bk_norm + 1
    per_row = 2 * math.isqrt(budget // rd) // (s * bk_norm) + 1
    return k, len(spec.digits) ** k * rows * (1 + per_row)


def _candidate_numerators(
    spec: IFSSpec, alpha: QuadInt, level: int, k: int
) -> set[tuple[int, int]]:
    """All g with |g/alpha^level| <= R' that can lie on the attractor.

    The attractor is covered by (#A)^k balls of radius R'/|beta|^k around
    the depth-k cylinder centers alpha^level * W / beta^k.  The distinct
    depth-k words W are built level by level as integer (x, y) pairs, and
    each ball is scanned row by row with exact integer chords.
    """
    beta = spec.beta
    r2 = bounding_radius_sq(spec)
    b00, b01, b10, b11 = mul_matrix(beta)
    digits = [(a.x, a.y) for a in spec.digits]
    words = {(0, 0)}
    for _ in range(k):
        words = {
            (b00 * x + b01 * y + ax, b10 * x + b11 * y + ay)
            for x, y in words
            for ax, ay in digits
        }

    # ball around W: center alpha^N * W * conj(beta^k) / N(beta)^k and
    # squared radius N(alpha)^N * R'^2 / N(beta)^k
    c00, c01, c10, c11 = mul_matrix(alpha**level * (beta**k).conj())
    bk_norm = beta.norm() ** k
    rn = alpha.norm() ** level * r2.numerator
    rd = r2.denominator * bk_norm
    out: set[tuple[int, int]] = set()
    for x, y in words:
        _ball_candidates(
            spec.field, c00 * x + c01 * y, c10 * x + c11 * y, bk_norm, rn, rd, out
        )
    return out


def enumerate_level(
    level: int,
    alpha: QuadInt,
    spec: IFSSpec,
    cap: int = DEFAULT_CAP,
) -> tuple[IntersectionPoint, ...]:
    """All attractor points with denominator dividing alpha^level.

    Raises ``CapExceededError`` when the sweep's cost bound from
    ``_scan_plan`` (lattice rows and points it may touch) exceeds ``cap``.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    if alpha.field != spec.field:
        raise PreconditionError("alpha must lie in the spec's field")
    if alpha.norm() < 2:
        raise PreconditionError("|alpha| > 1 is required")
    k, cost = _scan_plan(spec, alpha, level)
    if cost > cap:
        raise CapExceededError(
            f"level-{level} sweep may touch {cost} lattice rows and points, "
            f"over cap {cap}",
            estimate=cost,
            cap=cap,
        )
    fact = factor_element(alpha)
    u = alpha.norm() ** level
    conj_alpha_n = alpha.conj() ** level
    alpha_n = alpha**level
    points = []
    for x, y in sorted(_candidate_numerators(spec, alpha, level, k)):
        g = QuadInt(spec.field, x, y)
        v = g * conj_alpha_n
        if not is_member(v, u, spec):
            continue
        value = FieldElement.from_ratio(g, alpha_n)
        coding = coding_of(v, u, spec)
        assert coding is not None
        exps = minimal_tuple(value, fact)
        points.append(
            IntersectionPoint(
                value=value,
                den_pow=_den_power(exps, fact),
                exponents=exps,
                coding=coding,
            )
        )
    points.sort(key=lambda p: (p.value.norm(), p.value.num.x, p.value.num.y))
    return tuple(points)


def period_congruence_holds(
    point: IntersectionPoint, fact: ElementFactorization, beta: QuadInt
) -> bool:
    """beta^m - 1 lies in prod p_j^{n_j} for the point's period length m."""
    m = len(point.coding.period)
    product = prime_power_product(beta.field, fact.primes, point.exponents)
    return product.contains(beta**m - 1)


def full_intersection(
    alpha: QuadInt,
    spec: IFSSpec,
    mode: str = "bounded",
    n_max: int | None = None,
    cap: int = DEFAULT_CAP,
) -> IntersectionReport:
    """Intersection report in certified or bounded mode.

    Certified mode computes n0 and sweeps the single level n0 (every point
    with tuple sum below n0 has denominator dividing alpha^n0).  When the
    sweep's cost bound from ``_scan_plan`` exceeds ``cap`` it sweeps the
    largest level below n0 whose cost fits instead, found by scanning down
    (the cost is not monotone in the level), and reports the certificate
    with exhausted=False.  Bounded mode sweeps level n_max and raises
    ``CapExceededError`` when its cost is over the cap, as certified mode
    does when even level 0 is.
    """
    report = preconditions(alpha, spec)
    covering = None
    lb = None
    n0 = None
    if report.applicable_case is not None:
        covering = covering_constants(spec)
        lb = c2_constant(spec.beta, report.alpha_factorization.primes)
        n0 = certified_bound(report, covering, lb)

    if mode == "certified":
        if n0 is None:
            raise PreconditionError(
                "no applicable finiteness case; run in bounded mode"
            )
        level = n0
        while level > 0 and _scan_plan(spec, alpha, level)[1] > cap:
            level -= 1
        exhausted = level == n0
    elif mode == "bounded":
        if n_max is None or n_max < 0:
            raise PreconditionError("bounded mode needs n_max >= 0")
        level = n_max
        exhausted = n0 is not None and n_max >= n0
    else:
        raise PreconditionError(f"unknown mode {mode!r}")
    return IntersectionReport(
        points=enumerate_level(level, alpha, spec, cap=cap),
        preconditions=report,
        certified_n0=n0,
        level=level,
        exhausted=exhausted,
        covering=covering,
        lower_bound=lb,
    )
