"""Oracles for the case-(ii) hole test of ``survivors``: covering radii,
the exponents v_j, certified holes in S + O_K, and the runs they change."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from order_oracle import brute_ord_mod

import quadcantor as qc
from quadcantor import FieldElement, make_field
from quadcantor import intersection
from quadcantor.fractal import Hole, _hole_search, covering_exponent
from quadcantor.ideals import (
    factor_element,
    factor_rational_prime,
    ideal_from_generators,
    prime_power_product,
    reduce_mod,
)
from quadcantor.intersection import _Holes, _hole_exponents, _reduced, _shortest, survivors
from quadcantor.ntheory import is_prime

FIELDS = (-1, -2, -3, -7, -11)
# the nine imaginary quadratic fields whose ring of integers is a UFD
UFD_FIELDS = (-1, -2, -3, -7, -11, -19, -43, -67, -163)


def _q(field, x, y):
    return x * x + field.s * x * y - field.t * y * y


def _covering_radius_sq(ideal):
    """The squared covering radius of the ideal as a lattice in C: the
    largest squared distance from a point of C to its nearest lattice point.

    Take a reduced basis (u, v) (``_reduced``) with B(u, v) >= 0, flipping v
    if needed.  Then every angle of the triangle 0, u, v is at most 90
    degrees: B(u, v) >= 0 at 0, and Q(u) - B(u, v) and Q(v) - B(u, v) are
    positive as 2B(u, v) <= Q(u) <= Q(v).  Its translates and those of
    u, v, u + v tile the plane, each holding its circumcentre, so they are
    a Delaunay triangulation: the circumcentre is its farthest point from
    the lattice, at the circumradius R.  With sides Q(u), Q(v), Q(v - u)
    squared and area |det|*sqrt(|disc|)/4, det = u_x*v_y - u_y*v_x, the
    formula R = abc/(4*area) gives R^2 = Q(u)*Q(v)*Q(v - u) / (det^2*|disc|).
    """
    u, v = (qc.QuadInt(ideal.field, x, y) for x, y in _reduced(ideal))
    if (u + v).norm() < u.norm() + v.norm():
        v = -v
    det = u.x * v.y - u.y * v.x
    return Fraction(u.norm() * v.norm() * (v - u).norm(), det * det * -ideal.field.disc)


def _grid_covering(ideal, mu_sq, grid):
    """The largest squared distance from a point (a*i, c*k)/grid of the box
    [0, a) x [0, c) to the lattice, or None when one point has no lattice
    point within the claimed mu.  Lattice points are read row by row from
    4Q(x, y) = (2x + s*y)^2 + |disc|*y^2, everything scaled by grid."""
    field = ideal.field
    s, nyy = field.s, -field.t
    disc = 4 * nyy - s * s
    a, b, c = ideal.a, ideal.b, ideal.c
    n, d = mu_sq.numerator, mu_sq.denominator
    lim = n * grid * grid  # within mu: Q(diff) * d <= lim
    ymax = math.isqrt(4 * lim // (d * disc)) + 1
    gc = grid * c
    worst = 0
    for i, k in itertools.product(range(grid), repeat=2):
        x, y = a * i, c * k
        nearest = None
        for row in range(-((ymax - y) // gc), (y + ymax) // gc + 1):
            dy = y - gc * row
            r = math.isqrt(max(0, 4 * lim // d - disc * dy * dy)) + 2
            mid = 2 * x - 2 * grid * b * row + s * dy
            for col in range(-((r - mid) // (2 * grid * a)), (mid + r) // (2 * grid * a) + 1):
                dx = x - grid * (a * col + b * row)
                q = dx * dx + s * dx * dy + nyy * dy * dy
                if nearest is None or q < nearest:
                    nearest = q
        if nearest is None or nearest * d > lim:
            return None
        worst = max(worst, nearest)
    return Fraction(worst, grid * grid)


class TestCoveringRadius:
    @pytest.mark.parametrize("d", FIELDS)
    def test_matches_a_grid_scan(self, d):
        field = make_field(d)
        rng = random.Random(100 - d)
        ideals = [ideal_from_generators([field.one])]
        while len(ideals) < 8:
            gens = [field.element(rng.randint(-9, 9), rng.randint(-6, 6)) for _ in range(2)]
            if any(not g.is_zero() for g in gens):
                ideal = ideal_from_generators(gens)
                if ideal.norm <= 300:
                    ideals.append(ideal)
        grid = 36
        for ideal in ideals:
            mu_sq = _covering_radius_sq(ideal)
            worst = _grid_covering(ideal, mu_sq, grid)
            # every grid point lies within mu of the lattice ...
            assert worst is not None and worst <= mu_sq
            # ... and the deepest hole is within h of a grid point
            h = (math.sqrt(_q(field, ideal.a, 0)) + math.sqrt(_q(field, 0, ideal.c))) / (2 * grid)
            assert math.sqrt(worst) >= math.sqrt(mu_sq) - h - 1e-12

    def test_ring_of_integers(self):
        # the square of side 1, and the triangle of side 1 in Z[(1+sqrt(-3))/2]
        for d, want in ((-1, Fraction(1, 2)), (-3, Fraction(1, 3)), (-2, Fraction(3, 4))):
            field = make_field(d)
            assert _covering_radius_sq(ideal_from_generators([field.one])) == want
        # R_O^2 = (-t)(1 - s - t)/|disc|, the mu^2 of _Holes with every v_j = 0
        for d in UFD_FIELDS:
            field = make_field(d)
            want = Fraction(-field.t * (1 - field.s - field.t), -field.disc)
            assert _covering_radius_sq(ideal_from_generators([field.one])) == want
            holes = _holes_of(field, [_split_primes(field, random.Random(d), 1, 200)[0]])
            assert holes.radius_sq((0,)) == want

    def test_hole_radii_match_the_lattice(self):
        # mu^2 of prod P_j^{-v_j} = mu^2(I') / N(I')^2 for I' = prod P_j^{v_j},
        # as I'^-1 = conj(I')/N(I') and conjugation is an isometry
        rng = random.Random(37)
        for d in UFD_FIELDS:
            field = make_field(d)
            for count in (1, 2, 3):
                for _ in range(4):
                    holes = _holes_of(field, _split_primes(field, rng, count, 200))
                    for _ in range(3):
                        v = tuple(rng.randint(0, 6) for _ in holes.fact.primes)
                        ideal = prime_power_product(field, holes.fact.primes, v)
                        want = _covering_radius_sq(ideal) / ideal.norm**2
                        assert holes.radius_sq(v) == want, (d, v)


def _holes_of(field, primes):
    """A ``_Holes`` over the factorization of the product of generators of
    ``primes``, split primes over distinct rational primes of a UFD."""
    fact = factor_element(math.prod((_shortest(prime.hnf) for prime in primes), start=field.one))
    spec = qc.ifs_new(field.element(3), [field.zero, field.one])
    return _Holes(spec, fact, lambda n: 0)


def _split_primes(field, rng, count, below=38):
    """One random prime of degree 1 above each of ``count`` distinct split p < ``below``."""
    out = []
    for p in filter(is_prime, range(2, below)):
        splitting = factor_rational_prime(field, p)
        if splitting.kind == "split":
            out.append(rng.choice(splitting.primes))
    rng.shuffle(out)
    return out[:count]


def _powers(beta, ideal):
    """The residues modulo the ideal of every power of beta."""
    seen = set()
    x = reduce_mod(beta.field.one, ideal)
    while (x.x, x.y) not in seen:
        seen.add((x.x, x.y))
        x = reduce_mod(x * beta, ideal)
    return seen


def _one_plus_inside(group, ideal, sub):
    """Whether every residue 1 + j, j in the ideal ``sub`` containing
    ``ideal``, is in ``group``; the residues of ``sub`` by closure."""
    field = ideal.field
    gens = [field.element(sub.a), field.element(sub.b, sub.c)]
    zero = reduce_mod(field.zero, ideal)
    todo, seen = [zero], {zero}
    while todo:
        z = todo.pop()
        for g in gens:
            nxt = reduce_mod(z + g, ideal)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    for j in seen:
        one = reduce_mod(field.one + j, ideal)
        if (one.x, one.y) not in group:
            return False
    return True


def test_hole_exponents_give_the_largest_subgroup_of_beta():
    # <beta> modulo I contains 1 + J for J = prod P_j^{t_j}, t_j = n_j - v_j,
    # and no longer once a t_j with v_j > 0 is lowered by one
    rng = random.Random(61)
    checked = strict = 0
    for d in FIELDS:
        field = make_field(d)
        for _ in range(10):
            primes = _split_primes(field, rng, rng.randint(1, 2))
            beta = field.element(rng.randint(-9, 9), rng.randint(-9, 9))
            if beta.norm() < 2 or any(prime.contains(beta) for prime in primes):
                continue
            for n in itertools.product(range(4), repeat=len(primes)):
                ideal = prime_power_product(field, primes, n)
                if ideal.norm > 2500:
                    continue
                ords = tuple(
                    brute_ord_mod(beta, prime_power_product(field, (prime,), (k,))) if k else 1
                    for prime, k in zip(primes, n)
                )
                v = _hole_exponents(primes, ords)
                group = _powers(beta, ideal)
                t = [k - vj for k, vj in zip(n, v)]
                assert _one_plus_inside(group, ideal, prime_power_product(field, primes, t))
                for j, vj in enumerate(v):
                    if vj:
                        assert primes[j].p != 2 and t[j] >= 1
                        lower = t[:j] + [t[j] - 1] + t[j + 1:]
                        assert not _one_plus_inside(
                            group, ideal, prime_power_product(field, primes, lower)
                        )
                        strict += 1
                checked += 1
    assert checked >= 100 and strict >= 30


def _coords(z):
    return Fraction(z.num.x, z.den), Fraction(z.num.y, z.den)


def _misses(spec, hole, max_depth=16):
    """Whether an exact depth scan finds every piece more than rho from the
    hole's centre y.  Each piece D(p, r_k) it reaches in the word tree, over
    every translate by O_K, must have |y - p| > rho + r_k, or be replaced by
    its #A children, down to ``max_depth``.

    The depth-k pieces are D((c + W)/beta^k + g, r'/|beta|^k), with
    W = sum a_i beta^(k-i) built by W -> beta*W + a, in exact coordinates.
    """
    field = spec.field
    centre, r2 = spec.disk
    c, den = centre.num, centre.den
    b = spec.beta.norm()
    rho_sq = hole.rho_sq
    yx, yy = _coords(hole.centre)
    # a translate within rho + r' <= sqrt(2*(rho^2 + r'^2)) of y - c has
    # coordinates within 3*(rho + r') of it, as |x| + |y| <= 3*|x + y*w| here
    reach = 3 * math.isqrt(math.ceil(4 * (rho_sq + r2))) + 4
    cx, cy = _coords(centre)
    todo = [
        (0, field.zero, field.element(gx, gy))
        for gx in range(math.floor(yx - cx) - reach, math.floor(yx - cx) + reach + 1)
        for gy in range(math.floor(yy - cy) - reach, math.floor(yy - cy) + reach + 1)
    ]
    while todo:
        k, w, g = todo.pop()
        # p = (c + w)/beta^k + g = ((C + D*w) * conj(beta)^k) / (D * N^k) + g
        num = (c + w * den) * spec.beta.conj() ** k
        scale = den * b**k
        dist_sq = _q(field, yx - Fraction(num.x, scale) - g.x, yy - Fraction(num.y, scale) - g.y)
        r_sq = r2 / b**k
        gap = dist_sq - rho_sq - r_sq
        if gap > 0 and gap * gap > 4 * rho_sq * r_sq:
            continue
        if k == max_depth:
            return False
        todo.extend((k + 1, spec.beta * w + a, g) for a in spec.digits)
    return True


def _planar_specs():
    """Seeded specs with sigma < 2, and the -4+w spec of the README."""
    gauss = make_field(-1)
    specs = [qc.ifs_new(gauss.element(-2, 1), [gauss.element(k) for k in range(4)])]
    rng = random.Random(67)
    while len(specs) < 12:
        field = make_field(rng.choice(FIELDS))
        beta = field.element(rng.randint(-4, 4), rng.randint(-3, 3))
        if not 3 <= beta.norm() <= 12:
            continue
        digits = {field.element(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(4)}
        if 2 <= len(digits) < beta.norm():
            specs.append(qc.ifs_new(beta, sorted(digits, key=lambda a: (a.x, a.y))))
    return specs


# Seeded searches pinned to their outcomes: (index into
# _case_two_specs(Random(2024), 40), rho^2, budget, (x, y, den, nodes) of the
# hole's centre (x + y*w)/den, or None).  Specs 11, 20 and 37 have r'^2 above
# 4*R_0^2, so covering_exponent is above 0 at level 0, while the root's
# translates are still read at depth 0.
HOLE_TABLE = (
    (0, Fraction(1, 800), 5000, (13, 5, 16, 467)),
    (1, Fraction(3, 100), 5000, (1, 9, 16, 360)),
    (2, Fraction(1, 100), 200, (1, 1, 4, 25)),
    (3, Fraction(1, 200), 200, None),
    (4, Fraction(1, 100), 5000, (3, 5, 8, 294)),
    (5, Fraction(1, 100), 1000, (1, 25, 32, 724)),
    (5, Fraction(1, 100), 723, None),
    (7, Fraction(3, 400), 200, (7, 7, 8, 163)),
    (11, Fraction(1, 100), 20000, (29, 59, 64, 1122)),
    (11, Fraction(1, 400), 965, None),
    (20, Fraction(1, 400), 5000, (1, 13, 32, 3351)),
    (20, Fraction(1, 50), 20000, None),
    (37, Fraction(1, 100), 2000, None),
)


class TestHoleSearch:
    def test_holes_miss_an_exact_depth_scan(self):
        found = 0
        for spec in _planar_specs():
            unit = _covering_radius_sq(ideal_from_generators([spec.field.one]))
            for p in (3, 9, 27, 81):
                hole = _hole_search(spec, unit / p, 20000)
                if hole is not None:
                    assert hole.rho_sq == unit / p and hole.nodes <= 20000
                    assert _misses(spec, hole)
                    found += 1
        assert found >= 15

    def test_seeded_searches_keep_their_outcomes(self):
        specs = [spec for spec, _ in _case_two_specs(random.Random(2024), 40)]
        trapped = set()
        for i, rho_sq, budget, want in HOLE_TABLE:
            spec = specs[i]
            got = _hole_search(spec, rho_sq, budget)
            if want is None:
                assert got is None
            else:
                x, y, den, nodes = want
                assert got == Hole(FieldElement(spec.field.element(x, y), den), rho_sq, nodes)
            kappa = 1 + spec.field.s - spec.field.t  # 4*R_0^2
            if covering_exponent(spec.beta.norm(), spec.disk[1], Fraction(kappa)):
                trapped.add(i)
        assert trapped == {11, 20, 37}

    def test_no_hole_beyond_the_widest_gap_of_the_cantor_set(self, gauss, cantor):
        # S + O_K is the middle-thirds Cantor set plus Z[i]: the point
        # farthest from it is (1 + i)/2, at squared distance 1/4 + 1/36
        widest = Fraction(5, 18)
        hole = _hole_search(cantor, widest - Fraction(1, 1000), 20000)
        assert hole is not None
        x, y = _coords(hole.centre)
        assert abs(x - Fraction(1, 2)) < Fraction(1, 20) and abs(y - Fraction(1, 2)) < Fraction(1, 20)
        assert _misses(cantor, hole)
        assert _hole_search(cantor, widest, 20000) is None
        assert _hole_search(cantor, Fraction(1, 2), 20000) is None

    def test_a_clear_root_is_the_level_zero_hole(self, gauss):
        # S is a Cantor set in [0, 1/2], so (1 + i)/2 lies 1/2 from S + Z[i];
        # the root's ball scan meets four translates and none comes near
        spec = qc.ifs_new(gauss.element(3), [gauss.element(0), gauss.element(1)])
        hole = _hole_search(spec, Fraction(1, 20), 1000)
        assert hole == Hole(FieldElement(gauss.element(1, 1), 2), Fraction(1, 20), 4)
        assert _misses(spec, hole)

    def test_a_filled_root_leaves_no_live_cell(self, cantor):
        # at rho = 10 a root translate holds a point of S within rho of
        # every point of the unit cell, so no cell is left to search
        assert _hole_search(cantor, Fraction(100), 20000) is None

    def test_a_root_over_the_budget_gives_up_at_once(self, gauss):
        # N(beta) = 2 and a digit of norm 10^12: the disk around S has radius
        # about 2.4*10^6, so the root cell alone meets about 10^13 translates
        spec = qc.ifs_new(gauss.element(1, 1), [gauss.element(0), gauss.element(10**6)])
        start = time.perf_counter()
        assert _hole_search(spec, Fraction(1, 1000), 5000) is None
        assert time.perf_counter() - start < 1

    def test_the_cache_answers_by_the_budget_rule(self, gauss, monkeypatch):
        spec = qc.ifs_new(gauss.element(-2, 1), [gauss.element(k) for k in range(4)])
        target = Fraction(1, 578)
        hole = _hole_search(spec, target, 10**5)
        assert hole.nodes == 717 and hole.centre == FieldElement(gauss.element(9, 5), 16)
        # the search's path does not depend on its budget
        assert _hole_search(spec, target, hole.nodes - 1) is None
        assert _hole_search(spec, target, hole.nodes) == hole
        assert _hole_search(spec, Fraction(1, 34), 10**5) is None
        # so a run searches a radius again only at a larger budget than
        # the largest it failed at: (3,) has v = (2,), mu^2 = 1/578
        budgets = []
        monkeypatch.setattr(
            intersection, "_hole_search",
            lambda spec, rho_sq, budget: budgets.append(budget) or _hole_search(spec, rho_sq, budget),
        )
        budget = 716
        holes = intersection._Holes(spec, qc.factor_element(gauss.element(-4, 1)), lambda n: budget)
        assert holes.largest_kept([(3,)], [(2,)]) == 3
        assert holes.largest_kept([(3,)], [(2,)]) == 3
        budget = 700
        assert holes.largest_kept([(3,)], [(2,)]) == 3
        assert budgets == [716] and holes.hole is None
        budget = 717
        assert holes.largest_kept([(3,)], [(2,)]) == -1
        assert budgets == [716, 717] and holes.hole == hole


def _case_two_specs(rng, count):
    """Seeded (spec, alpha) in case (ii) with N(beta) <= 13 and N(alpha) <= 40."""
    out = []
    while len(out) < count:
        field = make_field(rng.choice(FIELDS))
        beta = field.element(rng.randint(-4, 4), rng.randint(-3, 3))
        if not 3 <= beta.norm() <= 13:
            continue
        digits = {
            field.element(rng.randint(-2, 2), rng.randint(-1, 1))
            for _ in range(rng.randint(2, 4))
        }
        if len(digits) < 2:
            continue
        spec = qc.ifs_new(beta, sorted(digits, key=lambda a: (a.x, a.y)))
        alpha = field.element(rng.randint(-4, 4), rng.randint(-3, 3))
        if not 2 <= alpha.norm() <= 40:
            continue
        if qc.preconditions(alpha, spec).applicable_case == "case_ii":
            out.append((spec, alpha))
    return out


class TestHoleTest:
    def test_bounded_runs_match_the_level_sweep(self):
        # the hole drops tuples the order keeps; the points stay those of
        # the level-3 lattice alpha^-3
        rng = random.Random(71)
        dropped = 0
        for spec, alpha in _case_two_specs(rng, 200):
            rep = qc.full_intersection(alpha, spec, mode="bounded", n_max=3, cap=10**6)
            assert rep.points == qc.enumerate_level(3, alpha, spec, cap=10**6)
            dropped += rep.dropped > 0
        assert dropped >= 30

    def test_tiny_budget_gives_the_order_survivors(self, monkeypatch):
        monkeypatch.setattr(
            intersection, "_hole_search", lambda spec, rho_sq, budget: _hole_search(spec, rho_sq, 1)
        )
        rng = random.Random(73)
        for spec, alpha in _case_two_specs(rng, 40):
            report = qc.preconditions(alpha, spec)
            lb = qc.c2_constant(spec.beta, report.alpha_factorization.primes)
            for mode in ("bounded", "certified"):
                rep = qc.full_intersection(alpha, spec, mode=mode, n_max=2, cap=2**12)
                n_max = 2 if mode == "bounded" else None
                assert rep.survivors == survivors(report, spec, lb, n_max)[0]
                assert rep.hole is None and rep.dropped == 0

    def test_hole_certifies_every_drop(self, gauss, gaussian_four):
        alpha = gauss.element(-4, 1)
        rep = qc.full_intersection(alpha, gaussian_four, mode="bounded", n_max=3)
        assert rep.survivors == ((2,),) and rep.dropped == 1
        assert rep.swept == (intersection.Sweep((2,), 1536, True),)
        assert [str(p.value) for p in rep.points] == ["0"]
        # (3,) has v = 2: the lattice P^-2, of squared covering radius 1/578
        assert rep.hole.rho_sq == Fraction(1, 578)
        assert _misses(gaussian_four, rep.hole)

    def test_a_found_hole_drops_only_what_it_covers(self, gauss, monkeypatch):
        # (3,) has v = (2,), mu^2 = 1/578, and is dropped; (2,) has v = (1,),
        # mu^2 = 1/34, above that hole, so it is searched again, and kept
        searched = []
        monkeypatch.setattr(
            intersection, "_hole_search",
            lambda spec, rho_sq, budget: searched.append(rho_sq) or _hole_search(spec, rho_sq, budget),
        )
        spec = qc.ifs_new(gauss.element(-2, 1), [gauss.element(k) for k in range(4)])
        holes = intersection._Holes(spec, qc.factor_element(gauss.element(-4, 1)), lambda n: 10**5)
        assert holes.largest_kept([(3,)], [(2,)]) == -1
        assert holes.hole.rho_sq == Fraction(1, 578) and holes.dropped == 1
        assert holes.largest_kept([(1,), (2,)], [(0,), (1,)]) == 2
        assert holes.hole.rho_sq == Fraction(1, 578) and holes.dropped == 1
        assert searched == [Fraction(1, 578), Fraction(1, 34)]

    def test_case_one_searches_no_hole(self, gauss, monkeypatch):
        searched = []
        monkeypatch.setattr(intersection, "_hole_search", lambda *args: searched.append(args))
        spec = qc.ifs_new(gauss.element(3), [gauss.element(0), gauss.element(2)])
        rep = qc.full_intersection(gauss.element(10), spec, mode="certified")
        assert rep.hole is None and rep.dropped == 0
        assert searched == []

    def test_a_run_never_repeats_a_failed_search(self, monkeypatch):
        # the hole test asks 40 times, for two radii, each failing or found
        # at the same budget: the run's memo leaves one search per radius
        field = make_field(-7)
        digits = [field.element(-1, 1), field.element(1, -1), field.element(2, 1)]
        spec = qc.ifs_new(field.element(-1, -1), digits)
        alpha = field.element(-4, -3)
        searched = []
        monkeypatch.setattr(
            intersection, "_hole_search",
            lambda *args: searched.append(args[1:]) or _hole_search(*args),
        )
        rep = qc.full_intersection(alpha, spec, mode="certified", cap=4096)
        assert rep.survivors == ((39, 2), (42, 1), (44, 0))
        assert rep.hole.rho_sq == Fraction(4, 3703) and rep.dropped == 135
        assert searched == [(Fraction(4, 161), 4096), (Fraction(4, 3703), 4096)]
        # a run whose memo forgets searches at every ask, to the same report
        init = intersection._Holes.__init__

        def forgetful(holes, *args):
            init(holes, *args)
            holes._failed = _Forgetful()

        monkeypatch.setattr(intersection._Holes, "__init__", forgetful)
        searched.clear()
        assert qc.full_intersection(alpha, spec, mode="certified", cap=4096) == rep
        assert len(searched) == 40

    def test_no_run_state_stays_on_the_spec(self, gauss):
        spec = qc.ifs_new(gauss.element(-2, 1), [gauss.element(k) for k in range(4)])
        alpha = gauss.element(-4, 1)
        bounded, certified = {"mode": "bounded", "n_max": 3}, {"mode": "certified"}
        for kw in (bounded, bounded, certified, certified):
            rep = qc.full_intersection(alpha, spec, **kw)
            fresh = qc.full_intersection(alpha, qc.ifs_new(spec.beta, spec.digits), **kw)
            assert rep.hole is not None and rep == fresh
        assert set(vars(spec)) == {
            "field", "beta", "digits", "_spaces", "radius_sq", "disk", "shifted_digits",
            "beta_matrix", "cover",
        }
        # the runs label too few states to pay for the cover's cells
        assert spec.cover.cells is None


class _Forgetful(dict):
    """A dict that stores nothing."""

    def __setitem__(self, key, value):
        pass


@pytest.mark.parametrize("case", ["case_iii", None, "case_I"])
def test_tuple_is_excluded_rejects_an_unknown_case(gauss, gaussian_four, case):
    report = qc.preconditions(gauss.element(-4, 1), gaussian_four)
    lb = qc.c2_constant(gaussian_four.beta, report.alpha_factorization.primes)
    assert qc.tuple_is_excluded(gaussian_four, lb, "case_ii", (109,))
    with pytest.raises(ValueError, match="unknown finiteness case"):
        qc.tuple_is_excluded(gaussian_four, lb, case, (109,))
