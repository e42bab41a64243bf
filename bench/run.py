"""quadcantor benchmark: cold-process samples, checked answers, traced layers.

    python3 bench/run.py --workload sweep-wall --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
A run repeats fresh-process samples of one workload (``bench/sample.py``), one
at a time, until the next sample would end after ``--seconds``; it takes at
least ``MIN_SAMPLES``.  ``--trace 0`` reports the end-to-end metrics as
medians over samples.  ``--trace 1`` alternates untraced and traced samples
and reports the per-layer metrics, with the tracing overhead measured against
the untraced ones.  Per-query percentiles are taken within each sample, then
the median over samples.  Before the samples, member-batch gets its expected
answers from the brute-force oracle in a separate process.

Times are in reference seconds: wall time corrected by a host-speed probe that
runs inside every sample (``bench/hostspeed.py``), because the shared host's
speed alone moves wall times by 20-40% between identical runs.  The report
lines also give the median wall times and the host speed the probe saw.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every request is checked; a raised error, a cap
or a wrong answer fails it.  The exit code is 1 when any answer is wrong and
2 when the library or a sample process cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SAMPLE = os.path.join(BENCH_DIR, "sample.py")

MIN_SAMPLES = 3
# a run has to end within 180 s, whatever --seconds asks for
HARD_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# (metric, layer, field): the share of traced solve time a layer takes
LAYER_FRACS = (
    ("intersection.enumerate_level.self_frac", "intersection.enumerate_level", "self_s"),
    ("exactmath.sqrt_bounds.self_frac", "exactmath.sqrt_bounds", "self_s"),
    ("membership.is_member.self_frac", "membership.is_member", "self_s"),
    ("membership.coding_of.self_frac", "membership.coding_of", "self_s"),
    ("membership.verify_coding.self_frac", "membership.verify_coding", "self_s"),
    ("orders.ord_mod.self_frac", "orders.ord_mod", "self_s"),
    ("orders.stabilization.self_frac", "orders.stabilization", "self_s"),
    ("orders.c2_constant.total_frac", "orders.c2_constant", "total_s"),
    ("intersection.certified_bound.self_frac", "intersection.certified_bound", "self_s"),
    ("exactmath.log2_interval.self_frac", "exactmath.log2_interval", "self_s"),
    ("ideals.factor_element.self_frac", "ideals.factor_element", "self_s"),
    ("ntheory.factor_int.self_frac", "ntheory.factor_int", "self_s"),
    ("intersection.minimal_tuple.self_frac", "intersection.minimal_tuple", "self_s"),
)
LAYER_CALLS = (
    ("exactmath.sqrt_bounds.calls", "exactmath.sqrt_bounds"),
    ("membership.is_member.calls", "membership.is_member"),
    ("orders.ord_mod.calls", "orders.ord_mod"),
    ("exactmath.log2_interval.calls", "exactmath.log2_interval"),
    ("ideals.ideal_pow.calls", "ideals.ideal_pow"),
)
PER_LAYER = {
    **{name: "frac" for name, _, _ in LAYER_FRACS},
    **{name: "count" for name, _ in LAYER_CALLS},
    "intersection.candidates": "count",
    "intersection.point_ratio": "frac",
    "membership.is_member.member_ratio": "frac",
    "membership.repeat_u_share": "frac",
    "quadring.mul_per_s": "1/s",
    "quadring.mul_half_per_s": "1/s",
    "orders.ord_mod.steps_per_s": "1/s",
    "trace.solve_s": "s",
    "trace.remainder_frac": "frac",
    "trace.overhead_frac": "frac",
}


class SampleError(RuntimeError):
    """A sample process crashed, timed out or printed no result."""


def run_child(args: list[str], deadline: float) -> dict:
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise SampleError("no time left for another sample")
    # a fixed hash seed keeps set iteration order, and so the work done by
    # the library's set-based scans, the same in every sample
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, SAMPLE, *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise SampleError(f"sample {args} timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"sample {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; a list shorter than 1/(1-q) gives its max."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(sample: dict) -> dict[str, float]:
    layers = sample["layers"]

    def get(layer: str, field: str) -> float:
        return layers.get(layer, {}).get(field, 0)

    solve = get("solve", "total_s")
    out = {name: get(layer, field) / solve for name, layer, field in LAYER_FRACS}
    out.update({name: get(layer, "calls") for name, layer in LAYER_CALLS})
    edges = sample["edges"]
    candidates = edges.get("intersection.enumerate_level>membership.is_member", 0)
    points = edges.get("intersection.enumerate_level>membership.coding_of", 0)
    member_calls = get("membership.is_member", "calls")
    out["intersection.candidates"] = candidates
    out["intersection.point_ratio"] = points / candidates if candidates else 0.0
    out["membership.is_member.member_ratio"] = (
        sample["member_true"] / member_calls if member_calls else 0.0
    )
    out["membership.repeat_u_share"] = sample["repeat_u"] / member_calls if member_calls else 0.0
    out.update(sample["rates"])
    out["trace.solve_s"] = sample["solve_s"]  # in reference seconds, like the untraced solve
    out["trace.remainder_frac"] = get("solve", "self_s") / solve
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Samples for one workload; returns the result object and a report."""
    deadline = perf_counter() + HARD_LIMIT_S
    attempted = failed = 0
    errors: list[str] = []
    expected = None
    if workload == "member-batch":
        expected = run_child(["--workload", workload, "--seed", str(seed), "--oracle"], deadline)
    start = perf_counter()  # the oracle is not part of the measured period

    plain: list[dict] = []
    traced: list[dict] = []
    walls: list[float] = []
    kinds = [False, True] if trace else [False]
    while True:
        t0 = perf_counter()
        for with_trace in kinds:
            args = ["--workload", workload, "--seed", str(seed)]
            sample = run_child(args + (["--trace"] if with_trace else []), deadline)
            (traced if with_trace else plain).append(sample)
            attempted += len(sample["latencies"])
            bad = set(sample["failed"])
            errors.extend(sample["errors"])
            if expected is not None:
                if sample["digest"] != expected["digest"]:
                    raise SampleError("sample inputs differ from the oracle's inputs")
                wrong = workloads.check_answers(sample["answers"], expected["answers"])
                if wrong:
                    errors.append(f"{len(wrong)} membership answers differ from the oracle")
                bad |= wrong
            failed += len(bad)
        walls.append(perf_counter() - t0)
        elapsed = perf_counter() - start
        if len(walls) >= MIN_SAMPLES and elapsed + statistics.median(walls) > seconds:
            break

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    report = {"samples": len(plain), "queries": sum(len(s["latencies"]) for s in plain),
              "errors": errors[:10]}
    for key in ("wall_setup_s", "wall_solve_s", "host_speed"):
        report[key] = statistics.median(s[key] for s in plain)
    if expected is not None:
        report["member_share"] = expected["answers"].count("1") / expected["queries"]
        report["repeat_u_share"] = expected["repeat_u_share"]
    solve = statistics.median(s["solve_s"] for s in plain)
    if not trace:
        result["metrics"] = {
            "setup_s": statistics.median(s["setup_s"] for s in plain),
            "solve_s": solve,
            "query_p50_ms": 1e3 * statistics.median(percentile(s["latencies"], 0.50) for s in plain),
            "query_p99_ms": 1e3 * statistics.median(percentile(s["latencies"], 0.99) for s in plain),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
        }
        units = END_TO_END
    else:
        rows = [layer_metrics(s) for s in traced]
        result["metrics"] = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
        result["metrics"]["trace.overhead_frac"] = result["metrics"]["trace.solve_s"] / solve - 1
        units = PER_LAYER
        report["layers"] = traced[-1]["layers"]
        report["absent_sites"] = traced[-1]["absent_sites"]
        report["traced_samples"] = len(traced)
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    return result, report


def print_report(workload: str, result: dict, report: dict) -> None:
    n, q = report["samples"], report["queries"]
    rate = result["failed"] / result["attempted"]
    print(f"== {workload}: {n} cold samples, {q} queries, "
          f"error_rate {rate:.4g} ({result['failed']}/{result['attempted']} requests)")
    for key in ("member_share", "repeat_u_share"):
        if key in report:
            print(f"   input {key} = {report[key]:.4f}")
    print(f"   wall set-up {report['wall_setup_s']:.4g} s, wall solve {report['wall_solve_s']:.4g} s, "
          f"host speed {report['host_speed']:.3f} of the reference (medians over {n} samples)")
    for name, m in result["metrics"].items():
        if "." in name:
            count = f"n={report['traced_samples']} traced"
        elif name.startswith("query_"):
            count = f"n={q} queries over {n} samples"
        else:
            count = f"n={n}"
        print(f"   {name:42s} {m['value']:14.6g} {m['unit']:6s} {count}")
    if "layers" in report:
        layers = report["layers"]
        solve = layers["solve"]["total_s"]
        print("   last traced sample, self wall time by layer ('solve' is the untraced remainder):")
        for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"     {name:40s} calls {row['calls']:8d}  self {row['self_s']:8.4f} s "
                  f"{row['self_s'] / solve:7.1%}")
        total = sum(row["self_s"] for row in layers.values())
        print(f"     {'sum of self times':40s} {'':14s}  {total:8.4f} s of traced solve {solve:.4f} s")
        if report["absent_sites"]:
            print(f"   trace sites absent at this commit: {', '.join(report['absent_sites'])}")
    for line in report["errors"]:
        print(f"   error: {line}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "quadcantor", "__init__.py")):
        print(f"error: no quadcantor sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, report = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_report(name, result, report)
            results[name] = result
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
