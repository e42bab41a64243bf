"""Certified finite enumeration of the radix points lying on the attractor.

D_alpha is the set of field elements whose denominator divides some power of
alpha.  Writing alpha*O_K as a product of prime-ideal powers, each z in
D_alpha gets a minimal exponent tuple n clearing its denominator, and two
bounds squeeze the coding period m of any intersection point:

  - m <= (#A)^k, the exact covering count at radius 1/(3|u|), and
  - m is a multiple of ord(beta mod prod P_j^{n_j}), which is at least
    c2 * prod p^m_p, with m_p the largest ceil(n_j/e_j) over the P_j above
    the rational prime p.

For sigma < 1 (or sigma < 2 under the unique-factorization hypotheses) the
constant c2 makes the two bounds cross at a computable n0: every tuple with
exponent sum n0 or more is empty.  The n0 search compares products of
logarithms of rationals and is done with rigorous dyadic brackets, never
bare floating point.  It is only reported: the exact order excludes far
more, and decides alone.  ``survivors`` finds, by one pruned depth-first
walk over the exponents, the maximal tuples whose order does not beat the
covering count and, in case (ii), that no certified hole in S + O_K
empties (``_Holes``), and each is swept as the lattice prod P_j^{-n_j}.  A
walk that no bounded box cut is the certified walk, so a run whose sweeps
all fit then covers every point.

A sweep scans the balls of a depth-k cylinder cover of the attractor: the
images D((W + c)/beta^k, r'/|beta|^k) of the disk D(c, r') of
``IFSSpec.disk`` under the depth-k maps, with k the least depth with
N(beta)^k >= u * r'^2.  Its cost, the lattice rows plus points those balls
can touch, is an exact integer bound, and the cap check and a capped
certified run's fallback are both decided on it; lattice, cover and cost
are the tuple's one plan (``_plan``).  The ball centres are the pieces of
``fractal._piece_steps``, built already scaled by the lattice's delta, and
one ``fractal._ball_candidates`` scan over every ball collects the lattice
points in them (``_candidate_numerators``).  Those are decided
together by one counting peel over them (``_attractor_numerators``), at
most #A set lookups each, so the cost bounds the whole sweep; only the
points the peel keeps are confirmed by ``is_member`` and coded by
``coding_of``.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import CapExceededError, PreconditionError
from .exactmath import log2_interval
# unused here; kept bound because bench/spans.py names them as trace sites,
# and removed together with those sites
from .exactmath import ceil_sub_sqrt, floor_add_sqrt  # noqa: F401
from .ideals import ideal_pow  # noqa: F401
from .fractal import (
    CoveringConstants,
    Hole,
    IFSSpec,
    covering_constants,
    covering_exponent,
    period_bound,
    similarity_dimension,
    _ball_candidates,
    _hole_search,
    _piece_steps,
)
from .ideals import (
    ElementFactorization,
    IdealHNF,
    factor_element,
    ideal_mul,
    prime_power_product,
    principal_ideal,
    valuation,
)
from .membership import Coding, coding_of, is_member
from .ntheory import padic_valuation
from .orders import LowerBoundSpec, _power_mod, c2_constant, order_lower_bound
from .quadring import FieldElement, QuadInt

UFD_FIELDS = frozenset({-1, -2, -3, -7, -11, -19, -43, -67, -163})
# lattice rows plus points one level sweep may touch, the cost of ``_plan``
DEFAULT_CAP = 1 << 18


class PreconditionReport(NamedTuple):
    """Exact evaluation of every hypothesis a finiteness certificate needs."""

    alpha: QuadInt
    alpha_beta_coprime: bool
    case_ii_eligible: bool  # field is a UFD and alpha is coprime to its conjugate
    alpha_factorization: ElementFactorization
    sigma: float
    case_i_applicable: bool
    case_ii_applicable: bool
    applicable_case: str | None  # "case_i" | "case_ii" | None


def _check_alpha(alpha: QuadInt, spec: IFSSpec) -> None:
    """Raise ``PreconditionError`` unless alpha lies in the spec's field
    with |alpha| > 1."""
    if alpha.field != spec.field:
        raise PreconditionError("alpha must lie in the spec's field")
    if alpha.norm() < 2:
        raise PreconditionError("|alpha| > 1 is required")


def preconditions(alpha: QuadInt, spec: IFSSpec) -> PreconditionReport:
    """Every hypothesis of the finiteness theorems, read off alpha's primes.

    (alpha) + (beta) = O_K iff no P | alpha contains beta: a proper sum lies in
    a prime.  (alpha) + (conj alpha) = O_K iff each P | alpha is split and over
    its own p: the sum is proper iff some P | alpha has conj(P) | alpha, and a
    ramified or inert P is its own conjugate, a split P's the other over p.
    """
    _check_alpha(alpha, spec)
    beta = spec.beta
    fact = factor_element(alpha)
    coprime = not any(prime.contains(beta) for prime in fact.primes)
    split = {prime.p for prime in fact.primes if prime.e == prime.f == 1}
    eligible = spec.field.d in UFD_FIELDS and len(split) == fact.ell
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


def minimal_tuple(z: FieldElement, fact: ElementFactorization) -> tuple[int, ...]:
    """Componentwise least exponents with z * prod p_j^{n_j} inside the ring.

    Rejects z whose denominator involves primes outside the factorization,
    i.e. points not in D_alpha.  Minimality is re-verified: J = z*I must be
    integral for I = prod P_j^{n_j} = (a, b + c*w), and J * P_j^-1 must not
    be for any n_j > 0, that is, P_j must miss z*a or z*(b + c*w).
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
    gens = []
    for g in prime_power_product(field, fact.primes, exps).basis():
        t = z.num * g
        if t.x % z.den or t.y % z.den:
            raise PreconditionError(f"{z} is not in D_alpha for alpha = {fact.element}")
        gens.append(QuadInt(field, t.x // z.den, t.y // z.den))
    for prime, n in zip(fact.primes, exps):
        if n and all(prime.contains(g) for g in gens):
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

    decided with rigorous brackets (lo, hi) of each logarithm.  Every
    argument is at least 1 (#A >= 2, N(beta) >= 2, 9*N(beta)*R'^2 > 9 and
    c2 <= 1), so every lower end is nonnegative: lower ends multiply to a
    lower end of the product and upper ends to an upper end.  The floors are
    taken in integers, with the eight ends over their common denominator.
    """
    case = report.applicable_case
    if case is None:
        return None
    ell = report.alpha_factorization.ell
    if lb.c2.numerator != 1:
        raise ArithmeticError("c2 must be a unit fraction")
    args = (
        Fraction(covering.digit_count),
        Fraction(covering.beta_norm),
        9 * covering.beta_norm * covering.radius_sq_bound,
        Fraction(lb.c2.denominator),
    )
    # case (i) reads 2a for a and scales the target by 2*ell
    k, scale = (2, 2 * ell) if case == "case_i" else (1, 1)

    prec = 64
    hi_candidate = None
    while prec <= 4096:
        ends = [end for x in args for end in log2_interval(x, prec)]
        # the eight ends as integers over their common denominator D
        den = math.lcm(*(end.denominator for end in ends))
        a_lo, a_hi, b_lo, b_hi, g_lo, g_hi, q_lo, q_hi = (
            end.numerator * (den // end.denominator) for end in ends
        )
        coeff_lo, coeff_hi = b_lo - k * a_hi, b_hi - k * a_lo
        if coeff_lo > 0:
            # target/coeff = (T/D^2)/(C/D) = T/(C*D), floored in integers
            lo_floor = scale * (a_lo * g_lo + b_lo * q_lo) // (coeff_hi * den)
            hi_floor = scale * (a_hi * g_hi + b_hi * q_hi) // (coeff_lo * den)
            hi_candidate = max(1, hi_floor + 1)
            if lo_floor == hi_floor:
                return max(1, lo_floor + 1)
        prec *= 2
    # bracket refinement hit the cap on a floor tie; the larger candidate
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
    prod P_j^{n_j}, whose generator clears the denominator.  Any other case
    raises ``ValueError``.
    """
    if case == "case_ii":
        return u
    if case == "case_i":
        return u * u
    raise ValueError(f"unknown finiteness case {case!r}: expected 'case_i' or 'case_ii'")


def _u_limit(spec: IFSSpec, lb: LowerBoundSpec, case: str) -> tuple[int, list[int]]:
    """An integer above every u = prod p^m_p the c2 bound keeps, and the H_k.

    ``tuple_is_excluded`` holds when c2*u > period_bound, and ord(n) is at
    least c2*u, so a tuple with larger u is excluded by its exact order too.
    period_bound is A^k for the u in (H_(k-1), H_k], with H_k the largest u
    whose u_norm satisfies 9*u_norm*R'^2 <= N(beta)^k; there only u <= A^k/c2
    escape.  H_(k+1) >= A*H_k: in case (ii) because A < N(beta), in case (i)
    because A <= isqrt(N(beta)) and isqrt(N(beta)*Y) >= isqrt(N(beta))*isqrt(Y).
    So once H_(k-1) >= A^k/c2, every later range is excluded as well.
    The limit is the largest term min(H_k, A^k/c2) <= H_k <= highs[-1], as
    the H_k never decrease; so for u <= limit the least k with u <= H_k
    exists, and period_bound(u_norm(u)) = A ** bisect_left(highs, u).
    """
    r2 = spec.radius_sq
    a = len(spec.digits)
    b = spec.beta.norm()
    limit, highs = 0, []
    # at k = len(highs): scaled = N(beta)^k * rd and top = A^k/c2
    scaled, top = r2.denominator, lb.c2.denominator
    while not highs or highs[-1] < top:
        y = scaled // (9 * r2.numerator)
        highs.append(y if case == "case_ii" else math.isqrt(y))
        limit = max(limit, min(highs[-1], top))
        scaled *= b
        top *= a
    return limit, highs


def survivors(
    report: PreconditionReport,
    spec: IFSSpec,
    lb: LowerBoundSpec | None,
    n_max: int | None,
    holes: _Holes | None = None,
) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Maximal tuples not excluded by their exact order, nor by a hole in
    S + O_K when ``holes`` is given, each at most n_max*b (any size when
    n_max is None), and whether the search is complete: no loop of the walk
    ran to the top of its box.

    A point with minimal tuple n has a coding period m with beta^m = 1
    modulo prod P_j^{n_j} (``period_congruence_holds``), so m is a multiple
    of ord(n) = lcm_j ord(beta mod P_j^{n_j}), the primes being coprime;
    and m is at most period_bound(u_norm(n)), the state count.  So a tuple
    with ord(n) > period_bound holds no point, and every point's tuple lies
    below one of the returned tuples.  With no applicable case nothing is
    excluded: n_max*b is returned, incomplete.

    One depth-first walk over the primes P_j sets n_j in turn, carrying
    u = prod p^m_p over the primes set so far and the lcm of their orders.
    Per setting of the earlier exponents it keeps the largest last one whose
    lcm is at most period_bound(u_norm(u)), read from the steps of
    ``_u_limit``, and that ``holes`` does not drop (``_Holes.largest_kept``);
    a smaller one lies below it.  It stops raising n_j once u
    is above ``_u_limit`` or the lcm is above the period bound at that
    limit.  Neither stop cuts the way to a point's minimal tuple n:
    ord(n) >= c2*u(n) (``order_lower_bound``) puts u(n) below the limit,
    and ord(n) <= period_bound(u_norm(u(n))) puts it below the bound there,
    as period_bound and u_norm only grow with u; each value up to n_j of the
    current exponent gives a u at most u(n) and an lcm dividing ord(n), the
    order modulo P^k dividing that modulo P^(k+1).

    Maximality takes one pass over the visited prefixes q in reverse walk
    order: up[q], the largest last exponent kept at q or a prefix above it,
    is read from the up[q + e_i], and (q, best) is kept when best exceeds
    them all.  Both stops only grow with each exponent, so every prefix
    above a visited q is visited, and comes after q in the walk.

    The box n_j <= e_j * (bit_length(limit) + 1) stops every loop by the u
    test, p^m_p alone being above the limit at its top.  A loop that the cut
    n_max*b_j lets run to its top makes the search incomplete; a complete
    search takes the steps of the uncut walk.  Nor would the certificate n0
    cut a kept tuple: c2*u <= ord(n) = lcm <= period_bound(u_norm(u)) fails
    ``tuple_is_excluded``, which every tuple of sum n0 or more passes
    (``certified_bound``).
    """
    fact = report.alpha_factorization
    case = report.applicable_case
    if case is None:
        return (tuple(n_max * b for b in fact.exponents),), False
    primes = fact.primes
    u_max, highs = _u_limit(spec, lb, case)
    top = [prime.e * (u_max.bit_length() + 1) for prime in primes]
    if n_max is not None:
        top = [min(t, n_max * b) for t, b in zip(top, fact.exponents)]
    orders = [
        [1] + [st.order(n) for n in range(1, t + 1)]
        for st, t in zip(lb.stabilizations, top)
    ]
    n_digits = len(spec.digits)
    bounds = [n_digits**k for k in range(len(highs) + 1)]  # period_bound per step
    order_max = bounds[bisect_left(highs, u_max)]
    m_p = dict.fromkeys((prime.p for prime in primes), 0)
    last = len(primes) - 1
    path = [0] * len(primes)
    best_at = {}  # visited prefix -> its largest kept last exponent, or -1
    complete = True

    def walk(j: int, u: int, order: int) -> None:
        nonlocal complete
        p, e = primes[j].p, primes[j].e
        held = m_p[p]
        order_j = orders[j]
        passed = []  # the last exponents whose order passes
        for nj in range(top[j] + 1):
            m = -(-nj // e)
            if m > held:
                uj = u * p ** (m - held)
            else:
                m, uj = held, u
            if nj <= e:
                oj = math.lcm(order, order_j[nj])
            else:
                if nj == e + 1:
                    # past e, order_j[nj] = m * p^lift with lift = ceil((nj -
                    # n0)/e) when positive (``order_factors``), so its lcm with
                    # order is base = lcm(order, m) times p^(lift - v_p(base/m))
                    # once that is positive, which is when nj > flat
                    st = lb.stabilizations[j]
                    base = math.lcm(order, st.m)
                    flat = st.n0 + e * (padic_valuation(base, p) - padic_valuation(st.m, p))
                oj = base if nj <= flat else base * p ** -((flat - nj) // e)
            if uj > u_max or oj > order_max:
                break
            if j < last:
                path[j] = nj
                m_p[p] = m
                walk(j + 1, uj, oj)
            elif oj <= bounds[bisect_left(highs, uj)]:
                passed.append(nj)
        else:
            complete = False
        if j == last:
            prefix = tuple(path[:j])
            if holes is None or not passed:
                best_at[prefix] = passed[-1] if passed else -1
            else:
                ords = [orders[i][ni] for i, ni in enumerate(prefix)]
                best_at[prefix] = holes.largest_kept(
                    [(*prefix, nj) for nj in passed],
                    [_hole_exponents(primes, (*ords, order_j[nj])) for nj in passed],
                )
        m_p[p] = held

    walk(0, 1, 1)
    kept = []
    up = {}  # prefix q -> the largest kept last exponent over prefixes >= q
    for q, best in reversed(best_at.items()):
        above = max([-1] + [up.get((*q[:i], q[i] + 1, *q[i + 1:]), -1) for i in range(last)])
        if best > above:
            kept.append((*q, best))
        up[q] = max(best, above)
    return tuple(reversed(kept)), complete


def _hole_exponents(primes, ords: tuple[int, ...]) -> tuple[int, ...]:
    """The v_j of ``_Holes`` for one tuple, from its orders
    ord_j = ord(beta mod P_j^{n_j}): the p_j-valuation of the order of
    beta^{L_j} modulo P_j^{n_j}, L_j = lcm_{i != j} ord_i, which is
    ord_j / gcd(ord_j, L_j); and 0 for a prime over 2."""
    out = []
    for j, (prime, o) in enumerate(zip(primes, ords)):
        h = o // math.gcd(o, math.lcm(*ords[:j], *ords[j + 1:]))
        out.append(0 if prime.p == 2 else padic_valuation(h, prime.p))
    return tuple(out)


class _Holes:
    """The hole test of one case-(ii) run of ``survivors``: a tuple n whose
    order passes is dropped when a closed disk D(y, rho) that misses S + O_K
    has rho at least the covering radius of the lattice prod P_j^{-v_j}, for
    the v_j of ``_hole_exponents``.

    Proof.  In case (ii) O_K is a PID and the primes P_j of alpha are split
    over distinct rational primes p_j, so O_K/P_j^{n_j} is Z/p_j^{n_j}.  Let
    z have minimal tuple n and I = prod P_j^{n_j}, so zO_K + O_K = I^-1.  The
    orbit of z under z -> beta*z - a, following its coding, stays in S and
    keeps the denominator I, since beta is a unit modulo I; so it reaches a
    cycle z'_0, ..., z'_{m-1} in S with z'_i = beta^i z'_0 (mod O_K), and
    S + O_K holds x*z'_0 + O_K for every x in the group <beta> of units
    modulo I.  Put t_j = n_j - v_j.  For odd p_j the group (Z/p_j^{n_j})^*
    is cyclic, and beta^{L_j} is 1 modulo every other P_i^{n_i} and has
    order of p_j-valuation v_j modulo P_j^{n_j}; a power of it has order
    p_j^{v_j} there, so it generates the one subgroup of that order,
    1 + p_j^{t_j} Z/p_j^{n_j} (v_j < n_j, as the p-part of (Z/p^n)^* has
    order p^(n-1)).  For p_j = 2, v_j = 0 gives the trivial subgroup, t_j =
    n_j.  By the Chinese remainder theorem <beta> contains 1 + J modulo I,
    J = prod P_j^{t_j}, so S + O_K contains z'_0 + J*z'_0 + O_K =
    z'_0 + J*I^-1, as J*z'_0 + O_K = J*(z'_0 O_K + O_K) = J*I^-1 for J
    containing I.  J*I^-1 = prod P_j^{-v_j} has a point of every coset
    within its covering radius mu of y.  So if mu <= rho, D(y, rho) meets
    S + O_K, which it misses: no point has minimal tuple n.

    mu^2 is R_O^2 / N(I') for I' = prod P_j^{v_j}, where R_O^2 is the
    squared covering radius of O_K.  Proof: O_K is a PID, so I' = g*O_K
    with N(g) = N(I') = prod p_j^{v_j}, and I'^-1 = g^-1 O_K; multiplying
    by g^-1 is a similarity of C with factor 1/|g|, so it divides squared
    covering radii by N(g).  R_O^2 = (-t)(1 - s - t)/|disc|: (1, w) is a
    reduced basis of O_K, as |2B(1, w)| = s <= N(1) = 1 <= N(w) = -t, and
    B(1, w) >= 0, so no angle of the triangle 0, 1, w is obtuse.  Its
    translates and those of 1, w, 1 + w tile the plane, each holding its
    circumcentre, so they are a Delaunay triangulation, and R_O is their
    circumradius: with sides N(1), N(w), N(w - 1) = 1 - s - t squared and
    area sqrt(|disc|)/4, R = abc/(4*area) gives the formula.  A tuple with
    every v_j = 0 has the lattice O_K, which meets every disk of its
    covering radius, and is never searched.  Each search for rho = mu is
    ``_hole_search``, given at most ``budget(n)`` piece tests, the cost of
    the sweep it could save.  ``hole`` is the largest hole found, which
    certifies every drop, and ``dropped`` counts the tuples dropped.  A
    search that failed at budget B fails at every smaller one, its path
    being the same: ``_failed`` keeps the largest such B per mu^2 for the
    run, and the spec keeps nothing.
    """

    def __init__(self, spec: IFSSpec, fact: ElementFactorization, budget: Callable[[tuple[int, ...]], int]):
        self.spec = spec
        self.fact = fact
        self.budget = budget
        self.hole: Hole | None = None
        self.dropped = 0
        self._failed: dict[Fraction, int] = {}

    def radius_sq(self, v: tuple[int, ...]) -> Fraction:
        """mu^2 of the lattice prod P_j^{-v_j}, R_O^2 / prod N(P_j)^{v_j}."""
        field = self.spec.field
        norm = math.prod(prime.norm**k for prime, k in zip(self.fact.primes, v))
        return Fraction(-field.t * (1 - field.s - field.t), -field.disc * norm)

    def largest_kept(self, tuples: list[tuple[int, ...]], vs: list[tuple[int, ...]]) -> int:
        """The largest last exponent of ``tuples``, which share every other
        exponent, that no hole drops, or -1.

        The tuples are taken by falling mu^2, the larger last exponent first
        on a tie; one at or below the last exponent kept needs no test, and
        one with mu^2 at most that of a hole already found needs no search,
        as a hole of radius rho is one of every smaller radius, nor does one
        whose mu^2 failed at a budget at least its own.
        """
        best = -1
        ranked = sorted(zip(tuples, vs), key=lambda tv: (self.radius_sq(tv[1]), tv[0][-1]), reverse=True)
        for n, v in ranked:
            if n[-1] <= best:
                continue
            mu_sq = self.radius_sq(v)
            if self.hole is not None and mu_sq <= self.hole.rho_sq:
                continue
            hole = None
            if any(v) and (budget := self.budget(n)) > self._failed.get(mu_sq, -1):
                hole = _hole_search(self.spec, mu_sq, budget)
                if hole is None:
                    self._failed[mu_sq] = budget
            if hole is None:
                best = n[-1]
            else:
                self.hole = hole
        self.dropped += sum(n[-1] > best for n in tuples)
        return best


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

    Every point whose denominator divides alpha^level is in ``points``:
    ``level`` is n0 (certified) or n_max (bounded), or if a survivor fell
    back min(n0, min_s max_p min_{j: s_j > p_j} p_j // b_j) over survivors s
    and swept parts p.  ``survivors`` are the maximal tuples that neither the
    exact order nor, in case (ii), a hole in S + O_K excludes: ``hole`` is
    the largest hole the run certified, or None, and ``dropped`` the number
    of tuples it dropped that the order kept (``_Holes``).  Per survivor,
    ``swept`` lists it unswept if it fell back, then its swept part unless
    that is listed or lies below another part.  ``exhausted`` means
    ``points`` is the whole intersection.
    """

    points: tuple[IntersectionPoint, ...]
    preconditions: PreconditionReport
    certified_n0: int | None
    level: int
    exhausted: bool
    lower_bound: LowerBoundSpec | None
    survivors: tuple[tuple[int, ...], ...]
    swept: tuple[Sweep, ...]
    hole: Hole | None = None
    dropped: int = 0

    @property
    def fallback(self) -> tuple[Sweep, ...]:
        """The survivors skipped for being over the cap."""
        return tuple(s for s in self.swept if not s.swept)


def _reduced(ideal: IdealHNF) -> tuple[tuple[int, int], tuple[int, int]]:
    """A Lagrange-Gauss reduced basis (u, v) of the ideal under the norm form
    Q, as (x, y) pairs: |2B(u, v)| <= Q(u) <= Q(v), so u is a shortest vector.

    It reduces the basis {a, b + c*w} of the Hermite form.
    """
    nxy, nyy = ideal.field.s, -ideal.field.t

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
            return (ux, uy), (vx, vy)
        vx, vy = vx - mu * ux, vy - mu * uy
        qv = q(vx, vy)


def _shortest(ideal: IdealHNF) -> QuadInt:
    """A nonzero element of least norm in the ideal (``_reduced``)."""
    return QuadInt(ideal.field, *_reduced(ideal)[0])


class _Plan(NamedTuple):
    """The sweep of one tuple n: its lattice, its cover and its cost.

    The lattice is I^-1 for I = prod P_j^{n_j}, written as (1/delta) * sub.
    delta is an element of I of least norm, so sub = delta * I^-1 is an
    integral ideal of norm N(delta)/N(I): the whole ring when I is
    principal, as every ideal is in a UFD.  u = N(I) clears every point's
    denominator, z = v/u with v in conj(I).

    The cover is k, the common denominator den and the squared radius rn/rd
    of the sweep's balls.  S lies in the disk D(c, r') of ``IFSSpec.disk``,
    and S is the union of (W + S)/beta^k over the depth-k words W, so the
    (#A)^k balls D((W + c)/beta^k, r'/|beta|^k) cover it.  k is the least
    depth with N(beta)^k >= u * r'^2, so each ball, scaled by delta, has
    squared radius at most N(sub).  For c = C/D the scaled ball around W is
    centred at delta * (D*W + C) * conj(beta^k) over den = D * N(beta)^k,
    with squared radius rn/rd = N(delta) * r'^2 / N(beta)^k.

    The cost bounds the sweep's work: (#A)^k times the rows plus points of
    ``sub`` that one closed ball of the cover's radius can touch, whatever
    its center.  In the chord quantities of ``_ball_candidates`` a ball
    spans at most 2*amax // (c*den) + 1 rows, each of at most
    2*r // (m*den*a) + 1 points with r taken at a' = 0.
    """

    delta: QuadInt
    sub: IdealHNF
    u: int
    k: int
    den: int
    rn: int
    rd: int
    cost: int


def _plan(spec: IFSSpec, fact: ElementFactorization, exponents: tuple[int, ...]) -> _Plan:
    field = spec.field
    ideal = prime_power_product(field, fact.primes, exponents)
    delta = _shortest(ideal)
    # delta * conj(I) lies in I * conj(I) = N(I) * O_K
    scaled = ideal_mul(principal_ideal(delta), ideal.conjugate())
    u = ideal.norm
    if scaled.a % u or scaled.b % u or scaled.c % u:
        raise ArithmeticError("delta * conj(I) is not divisible by N(I)")
    sub = IdealHNF(field, scaled.a // u, scaled.b // u, scaled.c // u)
    centre, r2 = spec.disk
    k = covering_exponent(spec.beta.norm(), r2, Fraction(1, u))
    bk_norm = spec.beta.norm() ** k
    den = centre.den * bk_norm
    rn = delta.norm() * r2.numerator
    rd = r2.denominator * bk_norm
    m = 1 + field.s
    budget = m * m * rn * den * den
    rows = 2 * math.isqrt(budget // (rd * -field.d)) // (sub.c * den) + 1
    per_row = 2 * math.isqrt(budget // rd) // (m * den * sub.a) + 1
    return _Plan(delta, sub, u, k, den, rn, rd, len(spec.digits) ** k * rows * (1 + per_row))


def _candidate_numerators(spec: IFSSpec, plan: _Plan) -> set[tuple[int, int]]:
    """All g in ``sub`` in the balls of the plan's cover, scaled by delta.

    Every point of the attractor lies in one of them.  Their centres over
    den are the depth-k pieces of ``fractal._piece_steps`` grown from
    delta*C with m = delta, and the distinct ones are kept level by level.
    The last level is not collected: the depth-(k-1) pieces and their steps
    go straight to one ``_ball_candidates`` scan over every ball, where a
    repeated centre only adds its points again.  At k = 0 the one ball is
    centred at delta*C.
    """
    b = spec.beta.norm()
    start = plan.delta * spec.disk[0].num
    words = {(start.x, start.y)}
    steps = _piece_steps(spec, plan.delta)
    for _, step in zip(range(plan.k - 1), steps):
        words = {(b * x + ax, b * y + ay) for x, y in words for ax, ay in step}
    centres = words
    if plan.k:
        last = next(steps)
        centres = ((b * x + ax, b * y + ay) for x, y in words for ax, ay in last)
    hnf = (plan.sub.a, plan.sub.b, plan.sub.c)
    return set(_ball_candidates(spec.field, centres, plan.den, plan.rn, plan.rd, hnf))


def _attractor_numerators(spec: IFSSpec, plan: _Plan) -> list[tuple[int, int]]:
    """The g of ``_candidate_numerators`` with g/delta in S, by one counting peel.

    The candidates C hold every g in ``sub`` whose point g/delta can lie in
    S.  The successor beta*z - a of z = g/delta is g'/delta with
    g' = beta*g - a*delta, which lies in ``sub`` because delta does, so each
    candidate makes #A set lookups and no division.  Each candidate counts
    its successors in C and records itself as their predecessor.  The peel
    then lowers the count of each predecessor of a candidate whose count is
    0, and peels those that reach 0 too.  The candidates left unpeeled are
    returned.

    Proof.  A candidate is peeled only once all its successors are peeled
    before it, so by induction no infinite path inside C leaves it; an
    unpeeled one has an unpeeled successor, so following such successors
    never stops.  So the unpeeled set Y is the set of candidates an infinite
    path inside C leaves (a self-loop, as for 0 when 0 is a digit, keeps its
    candidate's count positive).  Y is S ∩ L, for L the swept lattice.  S ∩ L
    lies in C, and each of its points has a successor in S (a coding's first
    step), which lies in L because beta and the digits are integral; so an
    infinite path inside C leaves each, and S ∩ L ⊆ Y.  An infinite path
    z_0, z_1, ... inside the bounded set C gives z_0 = sum_{j<=k} a_j
    beta^-j + beta^-k z_k for every k, which converges to a point of S; so
    Y ⊆ S.
    """
    cands = _candidate_numerators(spec, plan)
    b00, b01, b10, b11 = spec.beta_matrix
    steps = [(t.x, t.y) for t in (a * plan.delta for a in spec.digits)]
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
    while dead:
        for p in preds[dead.pop()]:
            count[p] -= 1
            if not count[p]:
                dead.append(p)
    return [g for g, n in count.items() if n]


def _cap_error(what: str, cost: int, cap: int, least: bool = False) -> CapExceededError:
    """The refusal of a sweep that may touch ``cost`` lattice rows and
    points, over ``cap``; ``least`` marks a cost that is only a lower bound
    (``_over_by_depth``)."""
    shown = f"at least {cost}" if least else cost
    return CapExceededError(
        f"{what} may touch {shown} lattice rows and points, over cap {cap}",
        estimate=cost,
        cap=cap,
    )


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
    cost bound from ``_plan`` (lattice rows and points it may touch)
    exceeds ``cap``, before the lattice is built when the cover depth alone
    puts it over (``_over_by_depth``), and ``ArithmeticError`` if
    ``is_member`` rejects a point the peel kept.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    _check_alpha(alpha, spec)
    fact = factor_element(alpha)
    whole = tuple(level * b for b in fact.exponents)
    if exponents is None:
        exponents = whole
    elif len(exponents) != fact.ell or not all(
        0 <= n <= t for n, t in zip(exponents, whole)
    ):
        raise ValueError(f"exponents must lie between 0 and {whole}")
    what = f"level-{level} sweep" if exponents == whole else f"tuple-{exponents} sweep"
    least = _over_by_depth(spec, fact, exponents, cap)
    if least:
        raise _cap_error(what, least, cap, least=True)
    plan = _plan(spec, fact, exponents)
    if plan.cost > cap:
        raise _cap_error(what, plan.cost, cap)
    u = plan.u
    conj_delta = plan.delta.conj()
    sub_norm = plan.sub.norm
    points = []
    for x, y in _attractor_numerators(spec, plan):
        g = QuadInt(spec.field, x, y)
        # z = g/delta = v/u with v = g * conj(delta) / N(sub)
        v = g * conj_delta
        v = QuadInt(spec.field, v.x // sub_norm, v.y // sub_norm)
        value = FieldElement(v, u)
        if not is_member(v, u, spec):
            raise ArithmeticError(f"the peel kept {value}, which is not in the attractor")
        coding = coding_of(v, u, spec)
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
    """beta^m - 1 lies in prod p_j^{n_j} for the point's period length m.

    beta^m is powered modulo the product, so the cost grows with log m.
    """
    product = prime_power_product(beta.field, fact.primes, point.exponents)
    pw = _power_mod(product)
    return pw(beta.x, beta.y, len(point.coding.period)) == pw(1, 0, 0)


def full_intersection(
    alpha: QuadInt,
    spec: IFSSpec,
    mode: str = "bounded",
    n_max: int | None = None,
    cap: int = DEFAULT_CAP,
) -> IntersectionReport:
    """Intersection report in certified or bounded mode.

    Both modes search for the maximal tuples the exact order does not
    exclude (``survivors``), nor in case (ii) a hole in S + O_K whose search
    takes at most min(cost, cap) piece tests (``_Holes``), at most n_max*b
    in bounded mode and of any size in certified mode, and sweep the
    lattice prod P_j^{-n_j} of each;
    bounded mode so returns exactly the points of level n_max.  Certified
    mode sweeps in place of a survivor s over the cap its part min(s, L*b)
    for the largest level L whose cost from ``_plan`` fits, or L = 0
    (``_fallback_part``).  Only the ``_maximal`` parts are swept, and all
    are checked before the first sweep: one over the cap raises
    ``CapExceededError`` naming its survivor, before its lattice is built
    when its cover depth alone puts it over (``_over_by_depth``).
    The certificate n0 is reported either way, and decides nothing.

    ``exhausted`` holds when the survivor search was complete, so that its
    survivors are those of the uncut walk, and none fell back: every
    point's tuple then lies below a swept survivor.  After a fallback the
    level is min(n0, min_s max_p min_{j: s_j > p_j} p_j // b_j) over parts p,
    as min(s, L*b) <= p iff L*b_j <= p_j wherever s_j > p_j.
    """
    report = preconditions(alpha, spec)
    lb = None
    n0 = None
    if report.applicable_case is not None:
        lb = c2_constant(spec.beta, report.alpha_factorization.primes)
        n0 = certified_bound(report, covering_constants(spec), lb)

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

    @functools.cache
    def cost(n):
        return _plan(spec, fact, n).cost

    def budget(n):  # min(cost(n), cap), with no plan for a tuple too deep
        return cap if _over_by_depth(spec, fact, n, cap) else min(cost(n), cap)

    holes = None
    if report.applicable_case == "case_ii":
        holes = _Holes(spec, fact, budget)
    found, complete = survivors(report, spec, lb, n_max if mode == "bounded" else None, holes)
    if mode == "certified":
        parts = [_fallback_part(spec, fact, s, cap, cost) for s in found]
    else:
        parts = list(found)
    ran = _maximal(parts)
    todo = set(ran)
    sweeps = []
    for s, part in zip(found, parts):
        if part != s:
            sweeps.append(Sweep(s, cost(s), False))
        if part in todo:
            least = _over_by_depth(spec, fact, part, cap)
            if least or cost(part) > cap:
                what = f"survivor {s}" if part == s else f"part {part} of survivor {s}"
                raise _cap_error(f"sweep of {what}", least or cost(part), cap, least=bool(least))
            todo.remove(part)
            sweeps.append(Sweep(part, cost(part), True))
    fell = any(p != s for s, p in zip(found, parts))
    if fell:
        def covered(s, p):  # the largest L <= n0 with min(s, L*b) <= p
            over = (pj // b for sj, pj, b in zip(s, p, fact.exponents) if sj > pj)
            return min(over, default=n0)
        level = min(n0, *(max(covered(s, p) for p in ran) for s in found))
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
        exhausted=complete and not fell,
        lower_bound=lb,
        survivors=found,
        swept=tuple(sweeps),
        hole=holes.hole if holes else None,
        dropped=holes.dropped if holes else 0,
    )


def _over_by_depth(
    spec: IFSSpec, fact: ElementFactorization, n: tuple[int, ...], cap: int
) -> int | None:
    """2*(#A)^(kcap+1) when the cover depth k of n's plan alone puts it over
    ``cap``, else None; no plan is built.

    A plan costs at least 2*(#A)^k, so a depth above kcap, the largest k
    with 2*(#A)^k <= cap (-1 when there is none), is over the cap, and
    2*(#A)^(kcap+1) is a lower bound on its cost that prints.  k is
    ``covering_exponent`` at 1/u, for u = N(I) = prod N(P_j)^{n_j} and
    r'^2 = rn/rd, so it is above kcap exactly when u*rn exceeds
    N(beta)^kcap * rd.  As u >= 2^t for t = sum n_j*(bitlen(N(P_j)) - 1),
    a t at least the bit length of that bound decides it without building
    u; otherwise u < 4^t is small enough to build.
    """
    n_digits = len(spec.digits)
    # the least k with 2*(#A)^k > cap, less one
    kcap = covering_exponent(n_digits, Fraction(cap + 1), Fraction(2)) - 1
    if kcap >= 0:
        r2 = spec.disk[1]
        limit = spec.beta.norm() ** kcap * r2.denominator
        t = sum(nj * (prime.norm.bit_length() - 1) for prime, nj in zip(fact.primes, n))
        if t < limit.bit_length():
            u = math.prod(prime.norm**nj for prime, nj in zip(fact.primes, n))
            if u * r2.numerator <= limit:
                return None
    return 2 * n_digits ** (kcap + 1)


def _fallback_part(
    spec: IFSSpec,
    fact: ElementFactorization,
    s: tuple[int, ...],
    cap: int,
    cost: Callable[[tuple[int, ...]], int],
) -> tuple[int, ...]:
    """The part min(s, L*b) a certified run sweeps for survivor s: s itself
    when it fits, else that of the largest level L whose part's ``cost`` is
    at most ``cap``, else that of L = 0.  The part of level L has den power
    L for every L up to that of s.

    A part whose cover depth alone puts it over the cap (``_over_by_depth``)
    is over unbuilt.  The depth only grows with L, so the levels whose depth
    fits are those up to one bisected level, and below it the levels are
    stepped down by ``cost``, which need not fall with L.
    """
    lo, hi = 0, _den_power(s, fact)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _over_by_depth(spec, fact, _clip(s, mid, fact), cap):
            hi = mid - 1
        else:
            lo = mid
    while lo and cost(_clip(s, lo, fact)) > cap:
        lo -= 1
    return _clip(s, lo, fact)


def _maximal(tuples: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The distinct tuples lying below no other, sorted: a sweep of n finds
    every point whose minimal tuple is at most n, so sweeping a tuple below
    another finds no new point.  By falling sum, a tuple lies below another
    exactly when it lies below an earlier kept one."""
    kept: list[tuple[int, ...]] = []
    for n in sorted(set(tuples), key=sum, reverse=True):
        if not any(all(a <= b for a, b in zip(n, m)) for m in kept):
            kept.append(n)
    return sorted(kept)


def _clip(n: tuple[int, ...], level: int, fact: ElementFactorization) -> tuple[int, ...]:
    """min(n, level*b): the part of n's lattice inside alpha^-level."""
    return tuple(min(nj, level * b) for nj, b in zip(n, fact.exponents))
