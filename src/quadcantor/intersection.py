"""Certified finite enumeration of the radix points lying on the attractor.

D_alpha is the set of field elements whose denominator divides some power of
alpha.  Writing alpha*O_K as a product of prime-ideal powers, each z in
D_alpha gets a minimal exponent tuple n clearing its denominator, and two
bounds squeeze the coding period m of any intersection point:

  - m <= (#A)^k, the exact covering count at radius 1/(3|u|), and
  - m is a multiple of ord(beta mod prod P_j^{n_j}), which is at least
    c2 * prod p^ceil(n_j/e_j).

For sigma < 1 (or sigma < 2 under the unique-factorization hypotheses) the
constant c2 makes the two bounds cross at a computable n0: every tuple with
exponent sum n0 or more is empty.  The n0 search compares products of
logarithms of rationals and is done with rigorous dyadic interval
enclosures, never bare floating point.  Below n0 the exact order excludes
far more: ``survivors`` finds the maximal tuples whose order does not beat
the covering count, and each is swept as the lattice prod P_j^{-n_j}, so a
certified run covers every point with a few small sweeps.

A sweep scans the balls of a depth-k cylinder cover of the attractor
(``_cover``): the images D((W + c)/beta^k, r'/|beta|^k) of the disk
D(c, r') of ``orbit_disk`` under the depth-k maps, with k the least depth
with N(beta)^k >= u * r'^2.  Its cost, the lattice rows plus points those
balls can touch, is an exact integer bound (``_scan_plan``); the cap check
and a capped certified run's fallback are both decided on it.  The lattice
points in the balls are decided together by one counting peel over them
(``_attractor_numerators``), at most #A set lookups each, so the cost
bounds the whole sweep; only the points the peel keeps are confirmed by
``is_member`` and coded by ``coding_of``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

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
    IdealHNF,
    are_coprime,
    factor_element,
    ideal_mul,
    prime_power_product,
    principal_ideal,
    valuation,
)
from .membership import (
    Coding,
    coding_of,
    is_member,
    orbit_disk,
    peel,
    shifted_digits,
)
from .orders import LowerBoundSpec, c2_constant, order_lower_bound
from .quadring import FieldElement, QuadInt, mul_matrix, norm_form

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
    u = int(low / lb.c2)  # the integer prod p^m_p of ``order_lower_bound``
    return low > period_bound(spec, _u_norm(case, u))


def _u_norm(case: str, u: int) -> int:
    """Norm of the denominator that ``period_bound`` sees for one tuple.

    u = prod p^m_p, with m_p = max ceil(n_j/e_j) over the primes P_j above
    each rational prime p, is the least positive integer in prod P_j^{n_j}.
    Case (i) clears the denominator with u itself, of norm u^2.  Case (ii)
    has a single split prime above each p, so u is the norm of
    prod P_j^{n_j}, whose generator clears the denominator.
    """
    return u if case == "case_ii" else u * u


def _u_limit(spec: IFSSpec, lb: LowerBoundSpec, case: str) -> int:
    """An integer above every u = prod p^m_p that the c2 bound keeps.

    ``tuple_is_excluded`` holds when c2*u > period_bound, and ord(n) is at
    least c2*u, so a tuple with larger u is excluded by its exact order too.
    period_bound is A^k for the u in (H_(k-1), H_k], with H_k the largest u
    whose u_norm satisfies 9*u_norm*R'^2 <= N(beta)^k; there only u <= A^k/c2
    escape.  H_(k+1) >= A*H_k: in case (ii) because A < N(beta), in case (i)
    because A <= isqrt(N(beta)) and isqrt(N(beta)*Y) >= isqrt(N(beta))*isqrt(Y).
    So once H_(k-1) >= A^k/c2, every later range is excluded as well.
    """
    r2 = bounding_radius_sq(spec)
    a = len(spec.digits)
    b = spec.beta.norm()
    limit = high = k = 0
    while high < lb.c2.denominator * a**k:
        y = b**k * r2.denominator // (9 * r2.numerator)
        high = y if case == "case_ii" else math.isqrt(y)
        limit = max(limit, min(high, lb.c2.denominator * a**k))
        k += 1
    return limit


def survivors(
    report: PreconditionReport,
    spec: IFSSpec,
    lb: LowerBoundSpec | None,
    n_max: int,
    n0: int | None,
) -> tuple[tuple[int, ...], ...]:
    """Maximal tuples n <= n_max*b with sum(n) < n0 that are not excluded.

    A point with minimal tuple n has a coding period m with beta^m = 1
    modulo prod P_j^{n_j} (``period_congruence_holds``), so m is a multiple
    of ord(n) = lcm_j ord(beta mod P_j^{n_j}), the primes being coprime;
    and m is at most period_bound(u_norm(n)), the state count.  So a tuple
    with ord(n) > period_bound holds no point, nor does one with sum >= n0,
    and every point's tuple lies below one of the returned tuples.  With no
    applicable case nothing is excluded and n_max*b is the one maximal
    tuple.

    The tuples are visited in groups with equal m_p for every rational
    prime p, which share u = prod p^m_p and so one period bound; groups
    with u above ``_u_limit`` are never visited.  A whole group is dropped
    when a lower bound on ord(n) over it beats that bound.  Proof
    of the lower bound: for each p with m_p > 0 some P_j above p has
    ceil(n_j/e_j) = m_p, that is n_j >= lo_j = e_j*(m_p - 1) + 1; the order
    modulo P^lo divides the order modulo P^n for lo <= n, so ord(n) is a
    multiple of ord(beta mod P_j^lo_j) for that j, for every p at once, and
    so of the lcm of those orders.  Which P_j attains m_p is not known, so
    the bound is the least such lcm over the choices of one P_j per p.  It
    is at least the largest per-prime order of any single choice.
    """
    fact = report.alpha_factorization
    top = tuple(n_max * b for b in fact.exponents)
    case = report.applicable_case
    if case is None:
        return (top,)
    top = tuple(min(t, n0 - 1) for t in top)
    primes = fact.primes
    orders = [
        [1] + [st.order(n) for n in range(1, t + 1)]
        for st, t in zip(lb.stabilizations, top)
    ]
    above: dict[int, list[int]] = {}
    for j, prime in enumerate(primes):
        above.setdefault(prime.p, []).append(j)
    # per rational prime p, one row per m_p: (the primes js above p, m_p,
    # p^m_p, least exponent sum at p, orders ord(beta mod P_j^lo_j) of the
    # P_j that can attain m_p)
    u_max = _u_limit(spec, lb, case)
    levels = []
    for p, js in above.items():
        rows = [(js, 0, 1, 0, [1])]
        m_max = max(-(-top[j] // primes[j].e) for j in js)
        for m in itertools.takewhile(lambda m: p**m <= u_max, range(1, m_max + 1)):
            lows = [(primes[j].e * (m - 1) + 1, j) for j in js]
            lows = [(lo, j) for lo, j in lows if lo <= top[j]]
            least = min(lo for lo, _ in lows)
            rows.append((js, m, p**m, least, [orders[j][lo] for lo, j in lows]))
        levels.append(rows)

    def exact(js, m):
        """Exponents at the primes js whose lifted exponent is exactly m."""
        spans = [range(min(top[j], primes[j].e * m) + 1) for j in js]
        for ns in itertools.product(*spans):
            if max(-(-n // primes[j].e) for n, j in zip(ns, js)) == m:
                yield ns

    kept = []
    for group in itertools.product(*levels):
        jss, ms, pms, leasts, lowss = zip(*group)
        u = math.prod(pms)
        if u > u_max or sum(leasts) >= n0:
            continue
        bound = period_bound(spec, _u_norm(case, u))
        if min(math.lcm(*c) for c in itertools.product(*lowss)) > bound:
            continue
        for parts in itertools.product(*map(exact, jss, ms)):
            n = [0] * len(primes)
            for js, ns in zip(jss, parts):
                for j, nj in zip(js, ns):
                    n[j] = nj
            if sum(n) < n0 and math.lcm(*(o[nj] for o, nj in zip(orders, n))) <= bound:
                kept.append(tuple(n))
    kept.sort(key=sum, reverse=True)
    maximal: list[tuple[int, ...]] = []
    for n in kept:
        if not any(all(a <= b for a, b in zip(n, t)) for t in maximal):
            maximal.append(n)
    return tuple(sorted(maximal))


@dataclass(frozen=True)
class IntersectionPoint:
    value: FieldElement
    den_pow: int
    exponents: tuple[int, ...]
    coding: Coding


class Sweep(NamedTuple):
    """The lattice prod P_j^{-n_j} of one tuple, its scan cost and whether it ran."""

    exponents: tuple[int, ...]
    cost: int
    swept: bool


@dataclass(frozen=True)
class IntersectionReport:
    """Points found, with the certificate and the sweeps behind them.

    Every point whose denominator divides alpha^level is in ``points``.
    ``survivors`` are the maximal tuples the exact order does not exclude,
    and ``swept`` lists each sweep in the order planned: a survivor over the
    cap (certified mode only) appears unswept, followed by the part of it
    that fitted.
    """

    points: tuple[IntersectionPoint, ...]
    preconditions: PreconditionReport
    certified_n0: int | None
    level: int
    exhausted: bool
    covering: CoveringConstants | None
    lower_bound: LowerBoundSpec | None
    survivors: tuple[tuple[int, ...], ...]
    swept: tuple[Sweep, ...]

    @property
    def fallback(self) -> tuple[Sweep, ...]:
        """The survivors skipped for being over the cap."""
        return tuple(s for s in self.swept if not s.swept)


class _Lattice(NamedTuple):
    """The lattice I^-1 for I = prod P_j^{n_j}, written as (1/delta) * sub.

    delta is an element of I of least norm, so sub = delta * I^-1 is an
    integral ideal of norm N(delta)/N(I): the whole ring when I is
    principal, as every ideal is in a UFD.  u = N(I) clears every point's
    denominator, z = v/u with v in conj(I).
    """

    delta: QuadInt
    sub: IdealHNF
    u: int


def _shortest(ideal: IdealHNF) -> QuadInt:
    """A nonzero element of least norm in the ideal.

    Lagrange-Gauss reduction of the basis {a, b + c*w} under the norm form:
    once |2B(u, v)| <= Q(u) <= Q(v), u is a shortest vector.
    """
    nxy, nyy = norm_form(ideal.field)

    def q(x, y):
        return x * x + nxy * x * y + nyy * y * y

    (ux, uy), (vx, vy) = (ideal.a, 0), (ideal.b, ideal.c)
    qu, qv = q(ux, uy), q(vx, vy)
    while True:
        if qv < qu:
            ux, uy, vx, vy, qu, qv = vx, vy, ux, uy, qv, qu
        # v -= mu*u with mu the integer nearest to B(u, v)/Q(u), where
        # 2B(u, v) = Q(u + v) - Q(u) - Q(v)
        mu = (q(ux + vx, uy + vy) - qv) // (2 * qu)
        if not mu:
            return QuadInt(ideal.field, ux, uy)
        vx, vy = vx - mu * ux, vy - mu * uy
        qv = q(vx, vy)


def _lattice(fact: ElementFactorization, exponents: tuple[int, ...]) -> _Lattice:
    field = fact.element.field
    ideal = prime_power_product(field, fact.primes, exponents)
    delta = _shortest(ideal)
    # delta * conj(I) lies in I * conj(I) = N(I) * O_K
    scaled = ideal_mul(principal_ideal(delta), ideal.conjugate())
    u = ideal.norm
    if scaled.a % u or scaled.b % u or scaled.c % u:
        raise ArithmeticError("delta * conj(I) is not divisible by N(I)")
    return _Lattice(delta, IdealHNF(field, scaled.a // u, scaled.b // u, scaled.c // u), u)


def _ball_candidates(
    field, X: int, Y: int, D: int, rn: int, rd: int, out: set, hnf: tuple[int, int, int]
) -> None:
    """Add to ``out`` every (x, y) with |x + y*w - (X + Y*w)/D|^2 <= rn/rd
    in the ideal whose Hermite form is hnf = (a, b, c).

    Everything sits over one common denominator, and each row y gets its
    exact chord from ``isqrt``.  With w^2 = s*w + t, the scale m = 1 + s
    (so w = (s + sqrt(d))/m) and a' = y*D - Y, the disk test reads

      rd*(m*D*x - m*X + s*a')^2 + rd*|d|*a'^2 <= budget = m^2*rn*D^2,

    so the rows are |a'| <= isqrt(budget // (rd*|d|)) and each row keeps
    m*D*x in [m*X - s*a' - r, m*X - s*a' + r] with
    r = isqrt((budget - rd*|d|*a'^2) // rd).  The ideal's rows are y = c*t,
    and row t holds the x = b*t (mod a): exactly its points in the closed
    ball.
    """
    a, b, c = hnf
    s = field.s
    m = 1 + s
    budget = m * m * rn * D * D
    rdd = rd * -field.d
    amax = math.isqrt(budget // rdd)
    md = m * D
    cd = c * D
    for t in range(-((amax - Y) // cd), (Y + amax) // cd + 1):
        y = c * t
        dy = y * D - Y
        r = math.isqrt((budget - rdd * dy * dy) // rd)
        mid = m * X - s * dy
        lo = -((r - mid) // md)
        lo += (b * t - lo) % a
        out.update([(x, y) for x in range(lo, (mid + r) // md + 1, a)])


def _cover(spec: IFSSpec, lattice: _Lattice) -> tuple[int, int, int, int]:
    """Depth k, common denominator and squared radius of the sweep's balls.

    S lies in the disk D(c, r') of ``orbit_disk``, and S is the union of
    (W + S)/beta^k over the depth-k words W, so the (#A)^k balls
    D((W + c)/beta^k, r'/|beta|^k) cover it.  k is the least depth with
    N(beta)^k >= u * r'^2, so each ball, scaled by delta, has squared
    radius at most N(sub).  For c = C/D the scaled ball around W is centred
    at delta * (D*W + C) * conj(beta^k) over the denominator D * N(beta)^k,
    with squared radius rn/rd = N(delta) * r'^2 / N(beta)^k.
    """
    centre, r2 = orbit_disk(spec)
    beta_norm = spec.beta.norm()
    k = 0
    bk_norm = 1
    while bk_norm * r2.denominator < lattice.u * r2.numerator:
        bk_norm *= beta_norm
        k += 1
    rn = lattice.delta.norm() * r2.numerator
    return k, centre.den * bk_norm, rn, r2.denominator * bk_norm


def _scan_plan(spec: IFSSpec, lattice: _Lattice) -> int:
    """An upper bound on the work of the lattice's sweep over ``_cover``.

    The cost is (#A)^k times the rows plus points of ``sub`` that one closed
    ball of the cover's radius can touch, whatever its center: in the chord
    quantities of ``_ball_candidates`` a ball spans at most
    2*amax // (c*D) + 1 rows, each of at most 2*r // (m*D*a) + 1 points with
    r taken at a' = 0.
    """
    k, den, rn, rd = _cover(spec, lattice)
    m = 1 + spec.field.s
    budget = m * m * rn * den * den
    sub = lattice.sub
    rows = 2 * math.isqrt(budget // (rd * -spec.field.d)) // (sub.c * den) + 1
    per_row = 2 * math.isqrt(budget // rd) // (m * den * sub.a) + 1
    return len(spec.digits) ** k * rows * (1 + per_row)


def _candidate_numerators(spec: IFSSpec, lattice: _Lattice) -> set[tuple[int, int]]:
    """All g in ``sub`` in the balls of ``_cover``, scaled by delta.

    Every point of the attractor lies in one of them.  The distinct depth-k
    words are built level by level as integer (x, y) pairs in the shifted
    coordinate D*W + C, from C with the digits of ``shifted_digits``, and
    each ball is scanned row by row with exact integer chords.
    """
    beta = spec.beta
    k, den, rn, rd = _cover(spec, lattice)
    centre, _ = orbit_disk(spec)
    b00, b01, b10, b11 = mul_matrix(beta)
    digits = shifted_digits(spec)
    words = {(centre.num.x, centre.num.y)}
    for _ in range(k):
        words = {
            (b00 * x + b01 * y + ax, b10 * x + b11 * y + ay)
            for x, y in words
            for ax, ay in digits
        }

    c00, c01, c10, c11 = mul_matrix(lattice.delta * (beta**k).conj())
    sub = lattice.sub
    hnf = (sub.a, sub.b, sub.c)
    out: set[tuple[int, int]] = set()
    for x, y in words:
        _ball_candidates(
            spec.field, c00 * x + c01 * y, c10 * x + c11 * y, den, rn, rd, out, hnf
        )
    return out


def _attractor_numerators(spec: IFSSpec, lattice: _Lattice) -> list[tuple[int, int]]:
    """The g of ``_candidate_numerators`` with g/delta in S, by one counting peel.

    The candidates C hold every g in ``sub`` whose point g/delta can lie in
    S.  The successor beta*z - a of z = g/delta is g'/delta with
    g' = beta*g - a*delta, which lies in ``sub`` because delta does, so each
    candidate makes #A set lookups and no division.  Each candidate counts
    its successors in C and records itself as their predecessor, and
    ``peel`` leaves a positive count on exactly the candidates that an
    infinite path inside C leaves.  Those are returned.

    Proof.  The unpeeled set Y is S ∩ L, for L the swept lattice.  S ∩ L
    lies in C, and each of its points has a successor in S (a coding's first
    step), which lies in L because beta and the digits are integral; so an
    infinite path inside C leaves each, and S ∩ L ⊆ Y.  An infinite path
    z_0, z_1, ... inside the bounded set C gives z_0 = sum_{j<=k} a_j
    beta^-j + beta^-k z_k for every k, which converges to a point of S; so
    Y ⊆ S.
    """
    cands = _candidate_numerators(spec, lattice)
    b00, b01, b10, b11 = mul_matrix(spec.beta)
    steps = [(t.x, t.y) for t in (a * lattice.delta for a in spec.digits)]
    preds: dict[tuple[int, int], list[tuple[int, int]]] = {g: [] for g in cands}
    count: dict[tuple[int, int], int] = {}
    dead = []
    for g in cands:
        x, y = g
        bx = b00 * x + b01 * y
        by = b10 * x + b11 * y
        n = 0
        for ax, ay in steps:
            into = preds.get((bx - ax, by - ay))
            if into is not None:
                into.append(g)
                n += 1
        count[g] = n
        if not n:
            dead.append(g)
    peel(count, preds, dead)
    return [g for g, n in count.items() if n]


def _point_order(p: IntersectionPoint):
    return (p.value.norm(), p.value.num.x, p.value.num.y)


def enumerate_level(
    level: int,
    alpha: QuadInt,
    spec: IFSSpec,
    cap: int = DEFAULT_CAP,
    exponents: tuple[int, ...] | None = None,
) -> tuple[IntersectionPoint, ...]:
    """All attractor points with denominator dividing alpha^level.

    Given ``exponents`` n (at most level*b), only the points whose minimal
    tuple is at most n: the sweep then scans the lattice prod P_j^{-n_j}
    in place of alpha^-level.  Raises ``CapExceededError`` when the sweep's
    cost bound from ``_scan_plan`` (lattice rows and points it may touch)
    exceeds ``cap``, and ``ArithmeticError`` if ``is_member`` rejects a
    point the peel kept.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    if alpha.field != spec.field:
        raise PreconditionError("alpha must lie in the spec's field")
    if alpha.norm() < 2:
        raise PreconditionError("|alpha| > 1 is required")
    fact = factor_element(alpha)
    whole = tuple(level * b for b in fact.exponents)
    if exponents is None:
        exponents = whole
    elif len(exponents) != fact.ell or not all(
        0 <= n <= t for n, t in zip(exponents, whole)
    ):
        raise ValueError(f"exponents must lie between 0 and {whole}")
    lattice = _lattice(fact, exponents)
    cost = _scan_plan(spec, lattice)
    if cost > cap:
        what = f"level-{level}" if exponents == whole else f"tuple-{exponents}"
        raise CapExceededError(
            f"{what} sweep may touch {cost} lattice rows and points, "
            f"over cap {cap}",
            estimate=cost,
            cap=cap,
        )
    u = lattice.u
    conj_delta = lattice.delta.conj()
    sub_norm = lattice.sub.norm
    points = []
    for x, y in _attractor_numerators(spec, lattice):
        g = QuadInt(spec.field, x, y)
        # z = g/delta = v/u with v = g * conj(delta) / N(sub)
        v = g * conj_delta
        if sub_norm > 1:
            v = QuadInt(spec.field, v.x // sub_norm, v.y // sub_norm)
        value = FieldElement.from_ratio(g, lattice.delta)
        if not is_member(v, u, spec):
            raise ArithmeticError(f"the peel kept {value}, which is not in the attractor")
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
    points.sort(key=_point_order)
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

    Both modes search the tuples n <= N*b with sum(n) < n0 for the maximal
    ones the exact order does not exclude (``survivors``), with N = n_max
    in bounded mode and N = n0 in certified mode, and sweep the lattice
    prod P_j^{-n_j} of each.  Bounded mode so returns exactly the points of
    level n_max, and raises ``CapExceededError`` when a survivor's sweep
    cost from ``_scan_plan`` is over the cap.  Certified mode skips such a
    survivor s and sweeps in its place min(s, L*b) for the largest level L
    whose cost fits; it then reports the least such L as ``level``.  Its
    certificate n0 is reported either way.

    ``exhausted`` holds when n0 exists and level*b_j >= n0 - 1 for all j:
    every point's tuple has sum < n0, so each n_j <= n0 - 1, and the search
    then covered the certified box min(N*b, n0 - 1), sweeping each survivor.
    A certified fallback never qualifies: min(s, L*b) < s in some j, so
    L*b_j < s_j <= n0 - 1.  The rule is partial: a smaller box that holds
    every certified survivor would need the search over that box too.
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
    elif mode == "bounded":
        if n_max is None or n_max < 0:
            raise PreconditionError("bounded mode needs n_max >= 0")
        level = n_max
    else:
        raise PreconditionError(f"unknown mode {mode!r}")
    fact = report.alpha_factorization

    def cost(n):
        return _scan_plan(spec, _lattice(fact, n))

    found = survivors(report, spec, lb, level, n0)
    sweeps = []
    for s in found:
        c = cost(s)
        if c <= cap:
            sweeps.append(Sweep(s, c, True))
            continue
        if mode == "bounded":
            raise CapExceededError(
                f"sweep of survivor {s} may touch {c} lattice rows and points, "
                f"over cap {cap}",
                estimate=c,
                cap=cap,
            )
        sweeps.append(Sweep(s, c, False))
        fit = _den_power(s, fact) - 1
        while fit > 0 and cost(_clip(s, fit, fact)) > cap:
            fit -= 1
        part = _clip(s, fit, fact)
        sweeps.append(Sweep(part, cost(part), True))
        level = min(level, fit)
    points: dict[FieldElement, IntersectionPoint] = {}
    for sweep in sweeps:
        if sweep.swept:
            n = sweep.exponents
            for p in enumerate_level(_den_power(n, fact), alpha, spec, cap, n):
                points.setdefault(p.value, p)
    return IntersectionReport(
        points=tuple(sorted(points.values(), key=_point_order)),
        preconditions=report,
        certified_n0=n0,
        level=level,
        exhausted=n0 is not None and all(level * b >= n0 - 1 for b in fact.exponents),
        covering=covering,
        lower_bound=lb,
        survivors=found,
        swept=tuple(sweeps),
    )


def _clip(n: tuple[int, ...], level: int, fact: ElementFactorization) -> tuple[int, ...]:
    """min(n, level*b): the part of n's lattice inside alpha^-level."""
    return tuple(min(nj, level * b) for nj, b in zip(n, fact.exponents))
