"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines; every tolerance is pinned here.
"""

import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from order_oracle import brute_ord_mod

import quadcantor as qc
from quadcantor import FieldElement, make_field
from quadcantor.ideals import prime_power_product


@contextmanager
def criterion(num, label, limit_s=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL  {label}", flush=True)
        raise
    elapsed = time.monotonic() - start
    print(f"[criterion {num}] PASS  {label} ({elapsed:.2f}s)", flush=True)
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion {num} exceeded {limit_s}s"


def run_cli_json(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "quadcantor", *argv],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


GAUSS = make_field(-1)
CANTOR = qc.ifs_new(GAUSS.element(3), [GAUSS.element(0), GAUSS.element(2)])
GAUSSIAN_FOUR = qc.ifs_new(GAUSS.element(-2, 1), [GAUSS.element(k) for k in range(4)])

WALL_D2 = {Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1)}
WALL_D10 = {
    Fraction(0), Fraction(1), Fraction(1, 4), Fraction(3, 4),
    Fraction(1, 10), Fraction(3, 10), Fraction(7, 10), Fraction(9, 10),
    Fraction(1, 40), Fraction(3, 40), Fraction(9, 40), Fraction(13, 40),
    Fraction(27, 40), Fraction(31, 40), Fraction(37, 40), Fraction(39, 40),
}


def _rational_values(points):
    out = set()
    for p in points:
        value = qc.parse_point(p["value"], GAUSS)
        assert value.num.y == 0, "Wall points must be rational"
        out.add(Fraction(value.num.x, value.den))
        # the scaled numerator field must be consistent: num / alpha^den_pow
        assert p["num"] is not None and p["den_pow"] is not None
    return out


_wall_cli_points = {}


def test_criterion_1_wall_set_d2():
    with criterion(1, "Wall set D2: bounded(4) returns exactly {0,1/4,3/4,1}", 5.0):
        record = run_cli_json(
            "intersect", "-d", "-1", "--alpha", "2", "--beta", "3",
            "--digits", "0,2", "--mode", "bounded", "--nmax", "4",
        )
        assert _rational_values(record["points"]) == WALL_D2
        assert len(record["points"]) == 4
        _wall_cli_points["d2"] = record["points"]


def test_criterion_2_wall_set_d10():
    with criterion(2, "Wall set D10: bounded(3) returns the 16 listed values", 60.0):
        record = run_cli_json(
            "intersect", "-d", "-1", "--alpha", "10", "--beta", "3",
            "--digits", "0,2", "--mode", "bounded", "--nmax", "3",
        )
        assert _rational_values(record["points"]) == WALL_D10
        assert len(record["points"]) == 16
        _wall_cli_points["d10"] = record["points"]


def test_criterion_3_order_stabilization_suite():
    with criterion(3, "order closed form == brute force, >= 40 cases", 60.0):
        step_budget = 300_000
        verified = 0
        kinds = set()
        for d in (-1, -2, -3, -7):
            field = make_field(d)
            betas = [
                field.element(3),
                field.element(5),
                field.element(1, 1),
                field.element(2, 1),
            ]
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
                splitting = qc.factor_rational_prime(field, p)
                for prime in splitting.primes:
                    if prime.norm ** (prime.e + 1) > step_budget:
                        continue
                    for beta in betas:
                        if beta.norm() <= 1 or prime.contains(beta):
                            continue
                        stab = qc.stabilization(beta, prime)
                        top = stab.n0 + 3 * prime.e
                        predicted = stab.n0 * stab.m + sum(
                            stab.m * prime.p ** (-(-j // prime.e))
                            for j in range(1, 3 * prime.e + 1)
                        )
                        if predicted > step_budget:
                            continue
                        for n in range(1, top + 1):
                            closed = stab.order(n)
                            brute = brute_ord_mod(beta, qc.ideal_pow(prime.hnf, n))
                            assert closed == brute
                        verified += 1
                        kinds.add(splitting.kind)
        assert verified >= 40, f"only {verified} cases fit the budget"
        assert kinds == {"ramified", "split", "inert"}
        print(f"          ({verified} cases verified)", flush=True)


def test_criterion_4_factorization_reconstruction():
    with criterion(4, "200 random factorizations rebuild alpha*O_K exactly"):
        rng = random.Random(2024)
        total = 0
        for d in (-1, -2, -3, -5, -7):
            field = make_field(d)
            y_max = int(math.isqrt(10**6 // -d))
            done = 0
            while done < 40:
                alpha = field.element(
                    rng.randint(-1000, 1000), rng.randint(-y_max, y_max)
                )
                if not 2 <= alpha.norm() <= 10**6:
                    continue
                fact = qc.factor_element(alpha)
                rebuilt = prime_power_product(field, fact.primes, fact.exponents)
                assert rebuilt == qc.principal_ideal(alpha)
                assert (
                    math.prod(p.norm**b for p, b in fact.factors) == alpha.norm()
                )
                done += 1
            total += done
        assert total == 200


def test_criterion_5_operational_period_bound():
    with criterion(5, "reported points: period <= bound, states 1/u-separated"):
        assert _wall_cli_points, "criteria 1-2 must run first"
        for key, spec_alpha in (("d2", 2), ("d10", 10)):
            for p in _wall_cli_points[key]:
                value = qc.parse_point(p["value"], GAUSS)
                u = value.den
                coding = qc.coding_of(value.num, u, CANTOR)
                assert coding is not None
                assert len(coding.period) <= qc.period_bound(CANTOR, u * u)
                seen, _ = _exhaustive_graph(value.num, u, CANTOR)
                nodes = [GAUSS.element(*key) for key in sorted(seen)]
                for i in range(len(nodes)):
                    for j in range(i + 1, len(nodes)):
                        assert (nodes[i] - nodes[j]).norm() >= 1


def test_criterion_6_certified_case_two():
    with criterion(6, "case (ii) certificate plus verified bounded(3) sweep", 600.0):
        alpha = GAUSS.element(-4, 1)
        report = qc.preconditions(alpha, GAUSSIAN_FOUR)
        assert report.alpha_beta_coprime  # gcd(17, 5) = 1
        assert report.case_ii_eligible  # UFD and alpha coprime to conjugate
        assert report.applicable_case == "case_ii"
        covering = qc.covering_constants(GAUSSIAN_FOUR)
        lb = qc.c2_constant(GAUSSIAN_FOUR.beta, report.alpha_factorization.primes)
        n0 = qc.certified_bound(report, covering, lb)
        assert isinstance(n0, int) and n0 >= 1
        # ell = 1: the only tuple with sum n0 is (n0,)
        assert report.alpha_factorization.ell == 1
        assert qc.tuple_is_excluded(GAUSSIAN_FOUR, lb, "case_ii", (n0,))
        result = qc.full_intersection(alpha, GAUSSIAN_FOUR, mode="bounded", n_max=3)
        assert result.certified_n0 == n0
        fact = report.alpha_factorization
        for pt in result.points:
            assert qc.verify_coding(pt.coding, pt.value.num, pt.value.den, GAUSSIAN_FOUR)
            assert qc.period_congruence_holds(pt, fact, GAUSSIAN_FOUR.beta)
        # the level-n0 lattice is far beyond desk scale: a hole in S + O_K
        # leaves the survivor (2,) of cost 1536, which the default cap sweeps;
        # under a smaller cap certified mode must degrade gracefully,
        # keeping the certificate attached
        certified = qc.full_intersection(alpha, GAUSSIAN_FOUR, mode="certified")
        assert certified.exhausted and certified.level == n0
        assert [str(p.value) for p in certified.points] == ["0"]
        certified = qc.full_intersection(alpha, GAUSSIAN_FOUR, mode="certified", cap=1024)
        assert certified.certified_n0 == n0
        assert not certified.exhausted and certified.level < n0
        print(f"          (n0 = {n0}, {len(result.points)} points at level 3)", flush=True)


def _exhaustive_graph(v, u, spec, radius_sq=None):
    """Reachable states of v/u and those among them that reach a cycle."""
    r2 = spec.radius_sq if radius_sq is None else radius_sq
    bn, bd = r2.numerator * u * u, r2.denominator
    beta = spec.beta
    scaled = [a * u for a in spec.digits]
    if v.norm() * bd > bn:
        return set(), set()
    field = spec.field
    seen = {(v.x, v.y)}
    frontier = [v]
    while frontier:
        new = []
        for z in frontier:
            bz = beta * z
            for a in scaled:
                w = bz - a
                if w.norm() * bd <= bn and (w.x, w.y) not in seen:
                    seen.add((w.x, w.y))
                    new.append(w)
        frontier = new
    can = set(seen)
    for _ in range(len(seen) + 1):
        nxt = set()
        for key in can:
            z = field.element(*key)
            bz = beta * z
            for a in scaled:
                w = bz - a
                if w.norm() * bd <= bn and (w.x, w.y) in can:
                    nxt.add(key)
                    break
        can = nxt
        if not can:
            break
    return seen, can


def _exhaustive_member(v, u, spec, radius_sq=None):
    return (v.x, v.y) in _exhaustive_graph(v, u, spec, radius_sq)[1]


def test_criterion_7_membership_oracle_equivalence():
    with criterion(7, "500 random queries agree with exhaustive search"):
        third = qc.ifs_new(
            make_field(-3).element(2),
            [make_field(-3).element(0), make_field(-3).element(1)],
        )
        specs = [CANTOR, GAUSSIAN_FOUR, third]
        rng = random.Random(31337)
        checked = 0
        for spec in specs:
            field = spec.field
            base = spec.radius_sq
            for _ in range(167):
                u = rng.randint(1, 64)
                v = field.element(rng.randint(-2 * u, 2 * u), rng.randint(-u, u))
                fast = qc.is_member(v, u, spec)
                assert fast == _exhaustive_member(v, u, spec)
                assert fast == _exhaustive_member(v, u, spec, radius_sq=4 * base)
                checked += 1
        assert checked >= 500
        print(f"          ({checked} queries checked)", flush=True)


def test_criterion_8_cns_round_trip():
    with criterion(8, "CNS round-trip and injectivity on the 41x41 box", 10.0):
        assert qc.expand(GAUSS.element(5), qc.cns_basis(2)) == [0, 1, 3, 1]
        for n in (1, 2, 3):
            basis = qc.cns_basis(n)
            seen = {}
            for a in range(-20, 21):
                for b in range(-20, 21):
                    gamma = GAUSS.element(a, b)
                    digits = tuple(qc.expand(gamma, basis))
                    assert qc.evaluate(digits, basis) == gamma
                    assert digits not in seen, "two inputs share an expansion"
                    seen[digits] = gamma


def test_criterion_9_dimension_diagnostics():
    with criterion(9, "similarity dimension and box-dimension estimate"):
        sigma = qc.similarity_dimension(CANTOR)
        assert abs(sigma - 0.6309297535714574) < 1e-10
        est = qc.box_dim_estimate(CANTOR, range(4, 13))
        assert abs(est.dimension - sigma) < 0.05
