"""Benchmark workloads: fixed inputs, timed requests and their answer checks.

Every workload is a list of requests.  A request is one user-level ask (an
intersection report with its point certificates, one `bound` pipeline, one
factorization, one membership query with its coding) and returns
``(answer, errors)``; an empty error list means the answer checked out.
Only member-batch draws inputs from the seed; the other workloads are fixed.

Library calls go through attribute lookups on the ``quadcantor`` package
(``qc.name``) so that the trace wrappers installed on those bindings see
them.  Only long-lived public names are used (no ``word_cap``, no orbit-graph
internals), and each sweep is defined by a fixed level rather than by
certified mode, whose swept level is expected to change.
"""

from __future__ import annotations

import hashlib
import random

import oracle

WORKLOADS = ("sweep-planar", "sweep-wall", "member-batch", "bound")

WHY = {
    "sweep-planar": "case-(ii) sweep at level 3 in Z[i]; the lattice ball scan and its exact square-root bounds dominate",
    "sweep-wall": "Wall D2 at level 22, the level a certified run must sweep; the orbit-graph pass over 28.7k mostly dead candidates dominates",
    "member-batch": "5,000 seeded membership queries over three specs, built members and their near misses; small live orbit graphs, no scan and no orders",
    "bound": "the bound pipeline on inert alpha plus factoring norms near 10^13; orders, stabilization and factoring dominate",
}

# Pinned answers.  n0 values are the certified bounds at this level of the
# theory; a later change to the library must reproduce them exactly.
PLANAR_N0 = 109
PLANAR_POINTS = ("0",)
WALL_N0 = 44
WALL_POINTS = ("0", "1/4", "3/4", "1")
WALL_LEVEL = 22
# Case (i) for beta = -2+w, A = {0,1}: alpha a rational prime inert in Z[i].
BOUND_N0 = {103: 224, 131: 234, 199: 251}
# alpha = x + y*w with prime norm x^2 + y^2 near 10^13, so one split prime.
FACTOR_ALPHAS = ((3162000, 71), (3162300, 13), (3162500, 1))

# member-batch: (name, d, beta, digits) with elements as (x, y) in {1, w}
MEMBER_SPECS = (
    ("cantor", -1, (3, 0), ((0, 0), (2, 0))),
    ("planar", -1, (-2, 1), ((0, 0), (1, 0), (2, 0), (3, 0))),
    ("eisenstein", -3, (2, 0), ((0, 0), (1, 0))),
)
MEMBER_PAIRS = 2500
MAX_PREPERIOD = 4
MAX_PERIOD = 8


def check_sweep(qc, report, spec, n0: int, points: tuple[str, ...]) -> list[str]:
    """Pinned n0 and point set; every point's coding and period congruence."""
    errors = []
    if report.certified_n0 != n0:
        errors.append(f"n0 {report.certified_n0} != {n0}")
    got = tuple(str(p.value) for p in report.points)
    if sorted(got) != sorted(points):
        errors.append(f"points {got} != {points}")
    fact = report.preconditions.alpha_factorization
    for p in report.points:
        if not qc.verify_coding(p.coding, p.value.num, p.value.den, spec):
            errors.append(f"coding of {p.value} does not re-evaluate")
        if not qc.period_congruence_holds(p, fact, spec.beta):
            errors.append(f"period congruence fails at {p.value}")
    return errors


def check_bound(case, n0, excluded, expected_n0: int) -> list[str]:
    errors = []
    if case != "case_i":
        errors.append(f"case {case} != case_i")
    if n0 != expected_n0:
        errors.append(f"n0 {n0} != {expected_n0}")
    if not excluded:
        errors.append(f"tuple ({n0},) not excluded")
    return errors


def check_factor(fact, alpha, norm: int) -> list[str]:
    """A prime norm must give exactly one split prime, to the first power."""
    if len(fact.factors) != 1:
        return [f"{alpha}: {len(fact.factors)} prime factors, expected 1"]
    prime, e = fact.factors[0]
    if e != 1 or prime.norm != norm or not prime.contains(alpha):
        return [f"{alpha}: factor {prime}^{e} is not the prime of norm {norm}"]
    return []


def check_answers(answers: str, expected: str) -> set[int]:
    """Indices of membership answers that differ from the oracle's."""
    n = max(len(answers), len(expected))
    return {i for i in range(n) if answers[i : i + 1] != expected[i : i + 1]}


def sweep_planar(qc, seed: int) -> tuple[list, dict]:
    field = qc.make_field(-1)
    spec = qc.ifs_new(field.element(-2, 1), [field.element(k) for k in range(4)])
    alpha = field.element(-4, 1)

    def request():
        report = qc.full_intersection(alpha, spec, mode="bounded", n_max=3)
        return None, check_sweep(qc, report, spec, PLANAR_N0, PLANAR_POINTS)

    return [request], {}


def sweep_wall(qc, seed: int) -> tuple[list, dict]:
    field = qc.make_field(-1)
    spec = qc.ifs_new(field.element(3), [field.element(0), field.element(2)])
    alpha = field.element(2)

    def request():
        report = qc.full_intersection(
            alpha, spec, mode="bounded", n_max=WALL_LEVEL, cap=10**30
        )
        return None, check_sweep(qc, report, spec, WALL_N0, WALL_POINTS)

    return [request], {}


def bound(qc, seed: int) -> tuple[list, dict]:
    field = qc.make_field(-1)
    spec = qc.ifs_new(field.element(-2, 1), [field.element(0), field.element(1)])
    requests = []
    for a, n0 in BOUND_N0.items():
        alpha = field.element(a)

        def request(alpha=alpha, n0=n0):
            report = qc.preconditions(alpha, spec)
            covering = qc.covering_constants(spec)
            lb = qc.c2_constant(spec.beta, report.alpha_factorization.primes)
            got = qc.certified_bound(report, covering, lb)
            excluded = got is not None and qc.tuple_is_excluded(
                spec, lb, report.applicable_case, (got,)
            )
            return None, check_bound(report.applicable_case, got, excluded, n0)

        requests.append(request)
    for x, y in FACTOR_ALPHAS:
        alpha = field.element(x, y)

        def request(alpha=alpha, norm=x * x + y * y):
            return None, check_factor(qc.factor_element(alpha), alpha, norm)

        requests.append(request)
    return requests, {}


def member_queries(qc, seed: int) -> tuple[list, list]:
    """Seeded queries: built members and their num+1 near misses, shuffled.

    The codings' lengths cycle through every (spec, preperiod, period), and
    only their digits and the order of the queries come from the seed.  The
    lengths set the denominator and so most of a query's cost; drawing them
    too would move the batch's total work by several percent between seeds.

    Returns the built specs and a list of (spec index, numerator, u, built)
    where built marks a value made from a coding, which must answer True.
    """
    rng = random.Random(seed)
    specs = []
    for _, d, beta, digits in MEMBER_SPECS:
        field = qc.make_field(d)
        specs.append(qc.ifs_new(field.element(*beta), [field.element(*a) for a in digits]))
    queries = []
    for i in range(MEMBER_PAIRS):
        s = i % len(specs)
        spec = specs[s]
        pre = i // len(specs) % (MAX_PREPERIOD + 1)
        per = 1 + i // (len(specs) * (MAX_PREPERIOD + 1)) % MAX_PERIOD
        coding = qc.Coding(
            tuple(rng.choice(spec.digits) for _ in range(pre)),
            tuple(rng.choice(spec.digits) for _ in range(per)),
        )
        z = qc.coding_value(coding, spec.beta)
        queries.append((s, z.num, z.den, True))
        queries.append((s, z.num + 1, z.den, False))
    rng.shuffle(queries)
    return specs, queries


def query_digest(queries) -> str:
    text = ";".join(f"{s},{v.x},{v.y},{u},{int(b)}" for s, v, u, b in queries)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def repeat_u_share(queries) -> float:
    """Share of queries whose (spec, u) already came up earlier in the list."""
    seen = set()
    repeats = 0
    for s, _, u, _ in queries:
        repeats += (s, u) in seen
        seen.add((s, u))
    return repeats / len(queries)


def oracle_answers(queries) -> str:
    """The brute-force oracle's answer to every query, as a '0'/'1' string."""
    bits = []
    for s, v, u, _ in queries:
        _, d, beta, digits = MEMBER_SPECS[s]
        half = d % 4 == 1
        bits.append("1" if oracle.is_member(d, half, beta, list(digits), (v.x, v.y), u) else "0")
    return "".join(bits)


def member_batch(qc, seed: int) -> tuple[list, dict]:
    specs, queries = member_queries(qc, seed)
    requests = []
    for s, v, u, built in queries:
        spec = specs[s]

        def request(v=v, u=u, spec=spec, built=built):
            answer = qc.is_member(v, u, spec)
            errors = []
            if answer:
                coding = qc.coding_of(v, u, spec)
                if coding is None or not qc.verify_coding(coding, v, u, spec):
                    errors.append(f"({v})/{u}: member without a verified coding")
            elif built:
                errors.append(f"({v})/{u}: built member answered False")
            return answer, errors

        requests.append(request)
    return requests, {"digest": query_digest(queries)}


SETUP = {
    "sweep-planar": sweep_planar,
    "sweep-wall": sweep_wall,
    "member-batch": member_batch,
    "bound": bound,
}
