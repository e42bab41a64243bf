"""One benchmark sample in a fresh process; prints one JSON line to stdout.

    python3 bench/sample.py --workload sweep-wall --seed 1 [--trace] [--oracle]

The library keeps module-global caches (orbit spaces, ideal powers, the
attractor radius), so every sample is its own process: a repeat inside one
process would time cache hits.  Set-up is the import of ``quadcantor`` plus
building fields, specs and inputs; solve is the request list from the first
library call to checked answers.  ``--trace`` runs the same requests under
span wrappers and then times the layer-rate probes.  ``--oracle`` prints the
brute-force membership answers for member-batch instead of timing anything.

Every time and rate is in reference seconds (``hostspeed``): the host-speed
probe runs from before the import to the end of the sample, and each timed
stretch is converted with the probes around it.  The wall times of set-up and
solve are printed as well, under ``wall_setup_s`` and ``wall_solve_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

import hostspeed  # noqa: E402  (the bench directory is on sys.path as the script's)
import spans  # noqa: E402
import workloads  # noqa: E402


def import_library():
    """Import quadcantor from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC_DIR)
    import quadcantor

    if not os.path.abspath(quadcantor.__file__).startswith(SRC_DIR + os.sep):
        raise ImportError(f"quadcantor imported from {quadcantor.__file__}, not {SRC_DIR}")
    return quadcantor


def run_requests(requests) -> tuple[list[tuple[float, float]], str, list[int], list[str]]:
    """Run each request; an exception counts as that request's failure.

    Returns each request's (start, end) on the wall clock, the answers as a
    string ('1', '0', or '-' for none), the indices of failed requests and
    their error messages.
    """
    marks = []
    answers = []
    failed = []
    errors = []
    for request in requests:
        t0 = perf_counter()
        try:
            answer, errs = request()
        except Exception as exc:  # a raising op is a failed op, not a crash
            answer, errs = None, [f"{type(exc).__name__}: {exc}"]
        marks.append((t0, perf_counter()))
        answers.append("-" if answer is None else "1" if answer else "0")
        if errs:
            failed.append(len(marks) - 1)
            errors.extend(errs)
    return marks, "".join(answers), failed, errors


def layer_rates(qc, probe: hostspeed.Probe) -> dict[str, float]:
    """Operations per reference second of single layers, outside any wrapper."""
    rates = {}
    for metric, d in (("quadring.mul_per_s", -1), ("quadring.mul_half_per_s", -3)):
        field = qc.make_field(d)
        a, b = field.element(12345, -6789), field.element(-321, 987)
        n = 20000
        runs = []
        for _ in range(3):
            t0 = perf_counter()
            for _ in range(n):
                a * b
            runs.append(n / probe.reference_seconds(t0, perf_counter()))
        rates[metric] = sorted(runs)[1]
    field = qc.make_field(-1)
    beta = field.element(-2, 1)
    modulus = qc.principal_ideal(field.element(1019))
    t0 = perf_counter()
    order = qc.ord_mod(beta, modulus)
    elapsed = probe.reference_seconds(t0, perf_counter())
    if order != 173060:
        raise ArithmeticError(f"ord_mod(-2+w, (1019)) = {order}, expected 173060")
    rates["orders.ord_mod.steps_per_s"] = order / elapsed
    return rates


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--oracle", action="store_true")
    args = ap.parse_args()

    if args.oracle:
        _, queries = workloads.member_queries(import_library(), args.seed)
        print(json.dumps({
            "digest": workloads.query_digest(queries),
            "answers": workloads.oracle_answers(queries),
            "repeat_u_share": workloads.repeat_u_share(queries),
            "queries": len(queries),
        }))
        return 0
    probe = hostspeed.Probe()
    probe.start()
    try:
        out = timed_sample(args, probe)
    finally:
        probe.stop()
    print(json.dumps(out))
    return 0


def timed_sample(args, probe: hostspeed.Probe) -> dict:
    t0 = perf_counter()
    qc = import_library()
    requests, info = workloads.SETUP[args.workload](qc, args.seed)
    t1 = perf_counter()
    out = {"setup_s": probe.reference_seconds(t0, t1), "wall_setup_s": t1 - t0, **info}
    if args.trace:
        tracer = spans.Tracer()
        out["absent_sites"] = tracer.install()
        try:
            with tracer.root():
                t0 = perf_counter()
                marks, answers, failed, errors = run_requests(requests)
                t1 = perf_counter()
        finally:
            tracer.uninstall()
        out["layers"] = tracer.layers()
        out["edges"] = tracer.edges()
        out["member_true"] = tracer.member_true
        out["repeat_u"] = tracer.repeat_u
        out["rates"] = layer_rates(qc, probe)
    else:
        t0 = perf_counter()
        marks, answers, failed, errors = run_requests(requests)
        t1 = perf_counter()
    out.update(
        solve_s=probe.reference_seconds(t0, t1),
        wall_solve_s=t1 - t0,
        host_speed=probe.speed(t0, t1),
        latencies=[probe.reference_seconds(a, b) for a, b in marks],
        answers=answers,
        failed=failed,
        errors=errors[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return out


    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
