"""Metric definitions shared by the runner, its tests and ``BENCHMARK.json``.

End-to-end metrics carry one name for every workload, because each run of
the benchmark must report the same set.  Every workload has three timed
parts, (a), (b) and (c), and the workload-specific names below say what each
part's rate means in that workload; the runner prints them next to the
shared name.

Per-layer metrics come from a traced run.  Each is measured on the workload
named in its row; a workload that does not make the call reports 0.  The
``moves`` column is the end-to-end metric the layer metric should move.

Two counters are read from the library's results rather than counted inside
it, because the library has no counters of its own: ``dp.steps`` is the
length of the tables ``compute_thresholds`` returns, one step per entry, and
``bound.certify.grid_points`` is the count the certificate reports.
``instance.validate.calls`` is counted by a shim around the ``validate`` that
``run_sweep`` calls, so it moves if the sweep's validation changes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("wall_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
    EndToEnd("part_a.per_s", "1/s", "higher", 0.25),
    EndToEnd("part_b.per_s", "1/s", "higher", 0.25),
    EndToEnd("part_c.per_s", "1/s", "higher", 0.25),
    EndToEnd("part_b.op_ms.p50", "ms", "lower", 0.25),
)

# Workload-specific name and unit of each shared end-to-end metric, plus the
# tail percentile of part (b)'s per-operation latency.  Together with
# setup_s, wall_s, peak_rss_mb and fail_ratio these are the 14 named metrics
# of the benchmark's definition; names marked "extra" go beyond it.
NAMED = {
    "finite-size": {
        "part_a.per_s": ("large_n.steps_per_s", "steps/s"),
        "part_b.per_s": ("small_n.instances_per_s", "instances/s"),
        "part_c.per_s": ("curves.rows_per_s", "rows/s"),
        "part_b.op_ms.p50": ("small_n.op_ms.p50", "ms"),
        "tail": ("small_n.op_ms.p98", "ms"),
    },
    "bound-grid": {
        "part_a.per_s": ("sweep.points_per_s", "points/s"),
        "part_b.per_s": ("certified_bound.points_per_s (extra)", "points/s"),
        "part_c.per_s": ("sweep_csv.rows_per_s (extra)", "rows/s"),
        "part_b.op_ms.p50": ("certified_bound.op_ms.p50", "ms"),
        "tail": ("certified_bound.op_ms.p95", "ms"),
    },
    "monte-carlo": {
        "part_a.per_s": ("policy.trials_per_s", "trials/s"),
        "part_b.per_s": ("policy_n1e6.trials_per_s (extra)", "trials/s"),
        "part_c.per_s": ("prophet.trials_per_s", "trials/s"),
        "part_b.op_ms.p50": ("policy_n1e6.op_ms.p50 (extra)", "ms"),
        "tail": None,
    },
}

TAIL_PERCENTILE = {"finite-size": 98, "bound-grid": 95, "monte-carlo": None}


@dataclass(frozen=True)
class Layer:
    """A per-layer metric and how the runner derives it from the traced run.

    ``source`` kinds: ``("call", span, size, scale)`` median duration of one
    call, ms times ``scale``; ``("setup_call", span, scale)`` the same for
    the calls made in set-up; ``("total", span)`` summed ms of a span per
    pass; ``("setup_total", span)`` the same per set-up; ``("counter", key)``
    per pass; ``("ratio", key, base)`` counter over counter per pass;
    ``("self", layer)`` a layer's self time per pass; ``("value", key)`` a
    number the run computed.
    """

    name: str
    unit: str
    better: str
    workload: str
    moves: str
    source: tuple


_FS, _BG, _MC = "finite-size", "bound-grid", "monte-carlo"
_LARGE, _SMALL = "large_n.steps_per_s", "small_n.*"

LAYERS = (
    Layer("dp.compute_thresholds.n1e6.ms", "ms", "lower", _FS, _LARGE,
          ("call", "dp.compute_thresholds", 10**6, 1.0)),
    Layer("dp.ns_per_step.n1e6", "ns", "lower", _FS, _LARGE,
          ("call", "dp.compute_thresholds", 10**6, 1e6 / 10**6)),
    Layer("dp.steps", "count", "lower", _FS, _LARGE, ("counter", "dp.steps")),
    Layer("dp.compute_thresholds.n1e3.us", "us", "lower", _FS, _SMALL,
          ("call", "dp.compute_thresholds", 10**3, 1e3)),
    Layer("instance.make_instance.us", "us", "lower", _FS, _SMALL,
          ("call", "instance.make_instance", 10**3, 1e3)),
    Layer("dp.gambler_prophet_ratio.us", "us", "lower", _FS, _SMALL,
          ("call", "dp.gambler_prophet_ratio", 10**3, 1e3)),
    Layer("prophet.prophet_exact.us", "us", "lower", _FS, _SMALL,
          ("call", "prophet.prophet_exact", 10**3, 1e3)),
    Layer("dp.acceptance_times.n1e3.us", "us", "lower", _FS, _SMALL,
          ("call", "dp.acceptance_times", 10**3, 1e3)),
    Layer("dp.acceptance_times.n1e6.ms", "ms", "lower", _FS, _LARGE,
          ("call", "dp.acceptance_times", 10**6, 1.0)),
    Layer("asymptotics.verify_bound_sandwich.ms", "ms", "lower", _FS, _LARGE,
          ("call", "asymptotics.verify_bound_sandwich", None, 1.0)),
    Layer("dp.compute_thresholds.peak_alloc_mb", "MB", "lower", _FS, "peak_rss_mb",
          ("value", "dp.compute_thresholds.peak_alloc_mb")),
    Layer("dp.write_threshold_csv.ms", "ms", "lower", _FS, "curves.rows_per_s",
          ("total", "dp.write_threshold_csv")),
    Layer("dp.write_threshold_csv.rows", "count", "higher", _FS, "curves.rows_per_s",
          ("counter", "dp.write_threshold_csv.rows")),
    Layer("instance.validate.calls", "count", "lower", _BG, "sweep.points_per_s",
          ("counter", "instance.validate.calls")),
    Layer("instance.validate.us", "us", "lower", _BG, "sweep.points_per_s",
          ("setup_call", "instance.validate", 1e3)),
    Layer("sweep.run_sweep.s", "s", "lower", _BG, "sweep.points_per_s",
          ("call", "sweep.run_sweep", None, 1e-3)),
    Layer("sweep.feasible_ratio", "ratio", "higher", _BG, "sweep.points_per_s",
          ("ratio", "sweep.feasible", "sweep.points")),
    Layer("sweep.write_sweep_csv.ms", "ms", "lower", _BG, "sweep_csv.rows_per_s",
          ("call", "sweep.write_sweep_csv", None, 1.0)),
    Layer("bound.hardness_bound.ms", "ms", "lower", _BG, "certified_bound.op_ms.*",
          ("call", "bound.hardness_bound", None, 1.0)),
    Layer("bound.iterations.mean", "count", "lower", _BG, "certified_bound.op_ms.*",
          ("ratio", "bound.iterations", "bound.points")),
    Layer("bound.interior_ratio", "ratio", "lower", _BG, "certified_bound.op_ms.*",
          ("ratio", "bound.interior", "bound.points")),
    Layer("bound.certify.ms", "ms", "lower", _BG, "certified_bound.op_ms.*",
          ("call", "bound.certify", None, 1.0)),
    Layer("bound.certify.grid_points", "count", "lower", _BG, "certified_bound.op_ms.*",
          ("ratio", "bound.certify.grid_points", "bound.interior")),
    Layer("sweep.run_sweep.workers2.s", "s", "lower", _BG, "none",
          ("value", "sweep.run_sweep.workers2.s")),
    Layer("dp.compute_thresholds.setup.ms", "ms", "lower", _MC, "setup_s",
          ("setup_total", "dp.compute_thresholds")),
    Layer("oracle.simulate_policy.n1e3.ms", "ms", "lower", _MC, "policy.trials_per_s, wall_s",
          ("call", "oracle.simulate_policy", 10**3, 1.0)),
    Layer("oracle.simulate_policy.n1e6.ms", "ms", "lower", _MC, "policy.trials_per_s, wall_s",
          ("call", "oracle.simulate_policy", 10**6, 1.0)),
    Layer("oracle.batches", "count", "lower", _MC, "policy.trials_per_s, wall_s",
          ("counter", "oracle.batches")),
    Layer("oracle.simulate_prophet.n1e3.ms", "ms", "lower", _MC, "prophet.trials_per_s",
          ("call", "oracle.simulate_prophet", 10**3, 1.0)),
) + tuple(
    Layer(f"oracle.{est}.{stat}", unit, "lower", _MC, "none", ("value", f"oracle.{est}.{stat}"))
    for est in ("policy_n1e3", "policy_n1e6", "prophet_n1e3")
    for stat, unit in (("abs_z", "sigma"), ("sd_per_trial", "reward"))
) + tuple(
    Layer(f"{layer}.self_ms", "ms", "lower", "all", "wall_s", ("self", layer))
    for layer in ("bench", "instance", "dp", "prophet", "asymptotics", "bound", "oracle", "sweep")
) + (
    Layer("trace.overhead_ms", "ms", "lower", "all", "none", ("value", "trace.overhead_ms")),
)
