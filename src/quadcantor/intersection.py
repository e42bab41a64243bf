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
    ideal_mul,
    ideal_pow,
    unit_ideal,
    valuation,
)
from .membership import Coding, coding_of, is_member, verify_coding
from .orders import LowerBoundSpec, c2_constant, order_lower_bound
from .quadring import FieldElement, QuadInt, mul_matrix

UFD_FIELDS = frozenset({-1, -2, -3, -7, -11, -19, -43, -67, -163})


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
    product = unit_ideal(field)
    for (prime, _), n in zip(fact.factors, exps):
        product = ideal_mul(product, ideal_pow(prime.hnf, n))
    if not _scaled_into_ring(z, product):
        raise PreconditionError(
            f"{z} is not in D_alpha for alpha = {fact.element}"
        )
    for j, n in enumerate(exps):
        if n == 0:
            continue
        smaller = unit_ideal(field)
        for i, ((prime, _), ni) in enumerate(zip(fact.factors, exps)):
            smaller = ideal_mul(
                smaller, ideal_pow(prime.hnf, ni - 1 if i == j else ni)
            )
        if _scaled_into_ring(z, smaller):
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


def _candidate_numerators(
    spec: IFSSpec, alpha: QuadInt, level: int, word_cap: int
) -> set[tuple[int, int]]:
    """All g with |g/alpha^level| <= R' that can lie on the attractor.

    The attractor is covered by (#A)^k balls of radius R'/|beta|^k around
    the depth-k cylinder centers alpha^level * W / beta^k.  The distinct
    depth-k words W are built level by level as integer (x, y) pairs, and
    each ball is scanned row by row with exact integer chords.
    """
    beta = spec.beta
    r2 = bounding_radius_sq(spec)
    na = alpha.norm() ** level
    beta_norm = beta.norm()
    n_digits = len(spec.digits)

    k = 0
    scale = 1
    # deepen while the ball radius in numerator units exceeds ~1 and the
    # word budget allows
    while scale < na * r2 and n_digits ** (k + 1) <= word_cap:
        scale *= beta_norm
        k += 1

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
    bk_norm = beta_norm**k
    rn = na * r2.numerator
    rd = r2.denominator * bk_norm
    out: set[tuple[int, int]] = set()
    for x, y in words:
        _ball_candidates(
            spec.field, c00 * x + c01 * y, c10 * x + c11 * y, bk_norm, rn, rd, out
        )
    return out


def _level_estimate_log10(spec: IFSSpec, alpha: QuadInt, level: int) -> float:
    """log10 of the approximate candidate count at the given level."""
    r2 = float(bounding_radius_sq(spec))
    density = 2.0 / math.sqrt(-spec.field.disc)
    base = math.log10(math.pi * r2 * density + 1e-12)
    return base + level * math.log10(alpha.norm())


def enumerate_level(
    level: int,
    alpha: QuadInt,
    spec: IFSSpec,
    cap: int = 10**8,
    word_cap: int = 1 << 16,
) -> tuple[IntersectionPoint, ...]:
    """All attractor points with denominator dividing alpha^level."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    if alpha.field != spec.field:
        raise PreconditionError("alpha must lie in the spec's field")
    if alpha.norm() < 2:
        raise PreconditionError("|alpha| > 1 is required")
    est_log = _level_estimate_log10(spec, alpha, level)
    if est_log > math.log10(cap):
        raise CapExceededError(
            f"level-{level} lattice (~10^{est_log:.1f} candidates) exceeds cap {cap}",
            estimate=int(10 ** min(est_log, 18.0)),
            cap=cap,
        )
    fact = factor_element(alpha)
    u = alpha.norm() ** level
    conj_alpha_n = alpha.conj() ** level
    alpha_n = alpha**level
    points = []
    for x, y in sorted(_candidate_numerators(spec, alpha, level, word_cap)):
        g = QuadInt(spec.field, x, y)
        v = g * conj_alpha_n
        if not is_member(v, u, spec):
            continue
        value = FieldElement.from_ratio(g, alpha_n)
        coding = coding_of(value.num, value.den, spec)
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
    product = unit_ideal(beta.field)
    for (prime, _), n in zip(fact.factors, point.exponents):
        product = ideal_mul(product, ideal_pow(prime.hnf, n))
    return product.contains(beta**m - 1)


def full_intersection(
    alpha: QuadInt,
    spec: IFSSpec,
    mode: str = "bounded",
    n_max: int | None = None,
    cap: int = 10**8,
    word_cap: int = 1 << 16,
) -> IntersectionReport:
    """Intersection report in certified or bounded mode.

    Certified mode computes n0 and sweeps the single level n0 (every point
    with tuple sum below n0 has denominator dividing alpha^n0); if that
    lattice exceeds the cap it degrades to the largest affordable level and
    reports the certificate with exhausted=False.
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
        if _level_estimate_log10(spec, alpha, n0) <= math.log10(cap):
            points = enumerate_level(n0, alpha, spec, cap=cap, word_cap=word_cap)
            return IntersectionReport(
                points=points,
                preconditions=report,
                certified_n0=n0,
                level=n0,
                exhausted=True,
                covering=covering,
                lower_bound=lb,
            )
        base = _level_estimate_log10(spec, alpha, 0)
        step = math.log10(alpha.norm())
        fallback = max(0, int((math.log10(cap) - base) / step))
        while fallback > 0 and _level_estimate_log10(spec, alpha, fallback) > math.log10(cap):
            fallback -= 1
        points = enumerate_level(fallback, alpha, spec, cap=cap, word_cap=word_cap)
        return IntersectionReport(
            points=points,
            preconditions=report,
            certified_n0=n0,
            level=fallback,
            exhausted=False,
            covering=covering,
            lower_bound=lb,
        )
    if mode == "bounded":
        if n_max is None or n_max < 0:
            raise PreconditionError("bounded mode needs n_max >= 0")
        points = enumerate_level(n_max, alpha, spec, cap=cap, word_cap=word_cap)
        exhausted = n0 is not None and n_max >= n0
        return IntersectionReport(
            points=points,
            preconditions=report,
            certified_n0=n0,
            level=n_max,
            exhausted=exhausted,
            covering=covering,
            lower_bound=lb,
        )
    raise PreconditionError(f"unknown mode {mode!r}")
