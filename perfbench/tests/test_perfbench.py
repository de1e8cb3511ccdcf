"""Tests of the benchmark itself: its schema, its seeding and its checks.

Run from the root of the repository with ``python -m pytest perfbench/tests``.
"""

import json
import subprocess
import sys
from functools import partial

import pytest
import rostop

from perfbench import metrics
from perfbench.run import ROOT, WORKLOAD_NAMES, percentile
from perfbench.tracing import Tracer
from perfbench.workloads import REF, SWEEP_CSV_REPEATS, WORKLOADS, Checker, PassTimes, Pins

DEFINED_END_TO_END = {
    "setup_s", "wall_s", "peak_rss_mb", "fail_ratio",
    "large_n.steps_per_s", "small_n.instances_per_s", "small_n.op_ms.p50",
    "small_n.op_ms.p98", "curves.rows_per_s",
    "sweep.points_per_s", "certified_bound.op_ms.p50", "certified_bound.op_ms.p95",
    "policy.trials_per_s", "prophet.trials_per_s",
}

DEFINED_PER_LAYER = {
    "dp.compute_thresholds.n1e6.ms", "dp.ns_per_step.n1e6", "dp.steps",
    "dp.compute_thresholds.n1e3.us", "instance.make_instance.us",
    "dp.gambler_prophet_ratio.us", "prophet.prophet_exact.us", "dp.acceptance_times.n1e3.us",
    "dp.acceptance_times.n1e6.ms", "asymptotics.verify_bound_sandwich.ms",
    "dp.compute_thresholds.peak_alloc_mb", "dp.write_threshold_csv.ms",
    "dp.write_threshold_csv.rows", "instance.validate.calls", "instance.validate.us",
    "sweep.run_sweep.s", "sweep.feasible_ratio", "sweep.write_sweep_csv.ms",
    "bound.hardness_bound.ms", "bound.iterations.mean", "bound.interior_ratio",
    "bound.certify.ms", "bound.certify.grid_points", "sweep.run_sweep.workers2.s",
    "dp.compute_thresholds.setup.ms", "oracle.simulate_policy.n1e3.ms",
    "oracle.simulate_policy.n1e6.ms", "oracle.batches", "oracle.simulate_prophet.n1e3.ms",
}


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_schema_names_every_metric():
    named = {"setup_s", "wall_s", "peak_rss_mb", "fail_ratio"}
    for per_workload in metrics.NAMED.values():
        named |= {entry[0] for entry in per_workload.values() if entry}
    assert DEFINED_END_TO_END <= named
    layers = {layer.name for layer in metrics.LAYERS}
    assert DEFINED_PER_LAYER <= layers
    for est in ("policy_n1e3", "policy_n1e6", "prophet_n1e3"):
        assert {f"oracle.{est}.abs_z", f"oracle.{est}.sd_per_trial"} <= layers


def test_benchmark_json_matches_the_schema():
    doc = _bench_json()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS) == list(WORKLOAD_NAMES)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": l.name, "unit": l.unit, "better": l.better} for l in metrics.LAYERS
    ]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload,trace", [("bound-grid", 0), ("monte-carlo", 1)])
def test_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _bench_json()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    report = json.loads((ROOT / ".perfbench-out" / f"{workload}-seed3-trace{trace}.json").read_text())
    prov = report["provenance"]
    for key in ("host_cpus", "python", "numpy", "rostop", "git_commit", "seed", "input_sizes",
                "workloads"):
        assert key in prov
    assert prov["seed"] == 3 and prov["workloads"] == [workload]


def test_fixed_seed_gives_identical_inputs():
    tr = Tracer(False)
    for wl in WORKLOADS.values():
        first, second = wl.setup(rostop, 11, tr), wl.setup(rostop, 11, tr)
        other = wl.setup(rostop, 12, tr)
        for key in ("large", "points", "seeds"):
            if key in first:
                assert first[key] == second[key]
                assert first[key] != other[key]
                assert REF in first[key] or key == "seeds"


def test_fixed_seed_gives_identical_monte_carlo_means():
    wl = WORKLOADS["monte-carlo"]
    means = []
    for _ in range(2):
        inputs = wl.setup(rostop, 5, Tracer(False))
        chk = Checker(Pins())
        wl.run_pass(rostop, inputs, Tracer(False), chk)
        assert chk.failed == 0, chk.findings
        means.append({k: v for k, v in inputs["outputs"].items() if k.endswith(".mean")})
    assert len(means[0]) == 3 and means[0] == means[1]


@pytest.mark.parametrize(
    "pins,finding",
    [(Pins(), None), (Pins(M=0.7234860334), "M = "), (Pins(nu_hat=0.2112311969), "nu_hat = ")],
)
def test_wrong_expected_value_raises_fail_ratio(pins, finding):
    wl = WORKLOADS["bound-grid"]
    inputs = wl.setup(rostop, 1, Tracer(False))
    inputs["points"] = [REF] + inputs["points"][1:4]
    chk = Checker(pins)
    wl.run_pass(rostop, inputs, Tracer(False), chk)
    # the sweep, four points, the sweep's CSV written SWEEP_CSV_REPEATS times
    assert chk.attempted == 1 + 4 + SWEEP_CSV_REPEATS
    if finding is None:
        assert chk.failed == 0, chk.findings
    else:
        assert chk.failed / chk.attempted > 0
        assert any(finding in f for f in chk.findings)


def test_validate_calls_are_counted_inside_the_sweep():
    wl = WORKLOADS["bound-grid"]
    inputs = wl.setup(rostop, 1, Tracer(False))
    inputs["points"] = [REF]
    tr = Tracer(True)
    tr.run_id = "pass-0"
    chk = Checker(Pins())
    wl.run_pass(rostop, inputs, tr, chk)
    assert chk.failed == 0, chk.findings
    assert tr.counters["pass-0"]["instance.validate.calls"] == 1331
    assert rostop.sweep.validate is rostop.instance.validate  # the shim is removed


def test_raising_call_counts_as_failed_operation():
    chk = Checker(Pins())
    with chk.op("boom"):
        raise ValueError("boom")
    with chk.op("fine"):
        pass
    assert (chk.attempted, chk.failed) == (2, 1)


def test_run_spread_interleaves_parts_and_times_every_operation():
    ran = []
    pt = PassTimes()
    pt.run_spread({
        "a": [(i, partial(ran.append, f"a{i}")) for i in range(2)],
        "b": [(i, partial(ran.append, f"b{i}")) for i in range(4)],
    }, Tracer(False))
    assert ran == ["b0", "a0", "b1", "b2", "a1", "b3"]
    assert [key for key, _ in pt.ops["a"]] == [0, 1]
    assert [key for key, _ in pt.ops["b"]] == [0, 1, 2, 3]


def test_percentile_is_nearest_rank():
    samples = list(range(1, 779))
    assert percentile(samples, 50) == 389
    assert sum(s > percentile(samples, 98) for s in samples) >= 10


def test_self_time_subtracts_children():
    tr = Tracer(True)
    tr.run_id = "pass-0"
    with tr.span("bench.part_a"):
        tr.call("dp.f", sum, range(100000))
    self_ms = tr.self_ms()["pass-0"]
    part = tr.spans[0].ms
    child = tr.spans[1].ms
    assert self_ms["dp"] == pytest.approx(child)
    assert self_ms["bench"] == pytest.approx(part - child)
