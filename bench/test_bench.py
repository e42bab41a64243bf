"""Tests of the benchmark's own checks, generator and tracer.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
from time import perf_counter

import pytest

import hostspeed
import run
import sample
import spans
import workloads

qc = sample.import_library()


def _wall_report(level: int = 4):
    field = qc.make_field(-1)
    spec = qc.ifs_new(field.element(3), [field.element(0), field.element(2)])
    return spec, qc.full_intersection(field.element(2), spec, mode="bounded", n_max=level)


def test_check_sweep_accepts_the_pinned_answer_and_rejects_corruptions():
    spec, report = _wall_report()
    assert workloads.check_sweep(qc, report, spec, workloads.WALL_N0, workloads.WALL_POINTS) == []
    assert workloads.check_sweep(qc, report, spec, workloads.WALL_N0 + 1, workloads.WALL_POINTS)
    assert workloads.check_sweep(qc, report, spec, workloads.WALL_N0, workloads.WALL_POINTS[:-1])
    assert workloads.check_sweep(qc, report, spec, workloads.WALL_N0, (*workloads.WALL_POINTS, "1/2"))


def test_check_sweep_rejects_a_point_whose_coding_is_wrong():
    spec, report = _wall_report()
    two = spec.digits[1]
    # 1/4 has period (0, 2); swapping the order gives 3/4, not 1/4
    bad = [
        dataclasses.replace(p, coding=qc.Coding((), (two, spec.digits[0])))
        if str(p.value) == "1/4" else p
        for p in report.points
    ]
    corrupt = dataclasses.replace(report, points=tuple(bad))
    errors = workloads.check_sweep(qc, corrupt, spec, workloads.WALL_N0, workloads.WALL_POINTS)
    assert any("1/4" in e for e in errors)


def test_check_bound_rejects_each_corrupted_field():
    assert workloads.check_bound("case_i", 224, True, 224) == []
    assert workloads.check_bound("case_i", 224, True, 225)
    assert workloads.check_bound("case_ii", 224, True, 224)
    assert workloads.check_bound("case_i", 224, False, 224)
    assert workloads.check_bound(None, None, False, 224)


def test_check_factor_accepts_a_prime_norm_and_rejects_a_wrong_one():
    field = qc.make_field(-1)
    alpha = field.element(4, 1)  # norm 17, a split prime
    fact = qc.factor_element(alpha)
    assert workloads.check_factor(fact, alpha, 17) == []
    assert workloads.check_factor(fact, alpha, 13)
    composite = field.element(3, 1)  # norm 10 = 2 * 5
    assert workloads.check_factor(qc.factor_element(composite), composite, 10)


def test_check_answers_flags_each_flipped_oracle_answer():
    assert workloads.check_answers("0110", "0110") == set()
    assert workloads.check_answers("0110", "0100") == {2}
    assert workloads.check_answers("0110", "011") == {3}


def test_oracle_agrees_with_the_library_on_seeded_queries():
    specs, queries = workloads.member_queries(qc, seed=3)
    queries = queries[:300]
    expected = workloads.oracle_answers(queries)
    got = "".join("1" if qc.is_member(v, u, specs[s]) else "0" for s, v, u, _ in queries)
    assert got == expected
    assert all(expected[i] == "1" for i, q in enumerate(queries) if q[3])
    assert "0" in expected  # some near misses fall off the attractor


def test_oracle_rejects_points_off_the_cantor_set():
    cantor = workloads.MEMBER_SPECS[0]
    _, d, beta, digits = cantor
    assert workloads.oracle.is_member(d, False, beta, list(digits), (1, 0), 4)  # 1/4
    assert not workloads.oracle.is_member(d, False, beta, list(digits), (1, 0), 2)  # 1/2


def test_member_generator_is_deterministic_per_seed_and_differs_across_seeds():
    _, a = workloads.member_queries(qc, seed=5)
    _, b = workloads.member_queries(qc, seed=5)
    _, c = workloads.member_queries(qc, seed=6)
    assert len(a) == 2 * workloads.MEMBER_PAIRS
    assert workloads.query_digest(a) == workloads.query_digest(b)
    assert workloads.query_digest(a) != workloads.query_digest(c)


def test_probe_converts_wall_time_net_of_probes_at_the_nearby_speed():
    probe = hostspeed.Probe()
    ref = hostspeed.REF_PROBE_S
    # half-speed probes at 1.0 and 1.1, a double-speed one at 5.0
    probe.starts = [1.0, 1.1, 5.0]
    probe.ends = [1.0 + 2 * ref, 1.1 + 2 * ref, 5.0 + ref / 2]
    assert probe.net(0.9, 1.2) == pytest.approx(0.3 - 4 * ref)
    assert probe.speed(0.9, 1.2) == pytest.approx(0.5)
    assert probe.reference_seconds(0.9, 1.2) == pytest.approx((0.3 - 4 * ref) * 0.5)
    # a stretch with no probe near it takes the closest probes on each side
    assert probe.speed(3.0, 3.001) == pytest.approx((0.5 + 2.0) / 2)
    assert probe.speed(6.0, 7.0) == pytest.approx(2.0)
    # probes that only overlap the stretch count for the part inside it
    assert probe.net(1.0 + ref, 1.1 + ref) == pytest.approx(0.1 - 2 * ref)


def test_probe_runs_while_the_timer_is_installed_and_not_after():
    probe = hostspeed.Probe()
    probe.start()
    try:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.2:
            sum(range(1000))
    finally:
        probe.stop()
    ran = len(probe.starts)
    assert ran >= 5
    assert 0 < probe.speed(t0, perf_counter()) < 10
    t1 = perf_counter()
    while perf_counter() - t1 < 0.05:
        sum(range(1000))
    assert len(probe.starts) == ran


def test_tracer_self_times_partition_the_root_and_restore_the_library(monkeypatch):
    monkeypatch.setitem(spans.SPAN_SITES, "absent.name", ["quadcantor:no_such_name"])
    original = qc.is_member
    tracer = spans.Tracer()
    assert tracer.install() == ["quadcantor:no_such_name"]
    try:
        with tracer.root():
            _wall_report(level=3)
    finally:
        tracer.uninstall()
    assert qc.is_member is original
    layers = tracer.layers()
    root = layers[spans.ROOT]["total_s"]
    assert sum(row["self_s"] for row in layers.values()) == pytest.approx(root)
    assert layers["membership.is_member"]["calls"] > 0
    assert tracer.edges()["intersection.enumerate_level>membership.is_member"] > 0


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
