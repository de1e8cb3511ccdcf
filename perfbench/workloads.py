"""The benchmark's three workloads: set-up, one timed pass, and output checks.

Every workload is a closed loop in one process: the benchmark calls the
public functions of ``rostop`` one at a time, waits for each result and
checks it before the next call.  The workload seed picks every parameter
point other than the reference point and every Monte Carlo seed; the library
only ever sees the generated inputs.

Why these workloads (see also ``BENCHMARK.json``):

* ``finite-size`` spends its time in ``dp`` and never calls ``bound``.  Part
  (a) is a few long backward passes, part (b) is hundreds of short ones, so a
  design that speeds long passes but slows short ones shows in a separate
  metric; part (c) is the per-row CSV path ``rostop figure`` takes by default.
* ``bound-grid`` spends its time in ``instance.validate``, ``asymptotics``
  and ``bound`` and never calls ``dp``: batch throughput of the serial sweep
  in (a), single-point latency of the ``rostop bound`` path in (b), and in
  (c) the sweep's CSV, written from (a)'s records as ``rostop sweep`` does.
* ``monte-carlo`` spends its time in ``oracle``: the policy sampler's
  geometric-stride walk and the prophet sampler's uniform matrix, whose cost
  grows with ``n``.
"""

from __future__ import annotations

import io
import math
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .tracing import Tracer

REF = (0.789, 1.24, 0.421)
# The README's 11^3 sweep grid, (lo, hi, step) per axis for a, b and p.
GRID = ((0.75, 0.85, 0.01), (1.2, 1.3, 0.01), (0.4, 0.5, 0.01))

LARGE_N = 10**6
SMALL_N = 10**3
CURVES_N = 10**5
# The curves CSV is written several times in each pass, so that a run holds
# enough repeats of it for a steady upper quartile.
CURVES_REPEATS = 3
# The same holds for the sweep CSV, which takes a few milliseconds.
SWEEP_CSV_REPEATS = 16
LARGE_STRIDE = 1000
SEEDED_LARGE_POINTS = 3
CERT_SAMPLE = 256
POLICY_SMALL_TRIALS = 10**6
POLICY_LARGE_TRIALS = 10**5
PROPHET_TRIALS = 10**5


@dataclass(frozen=True)
class Pins:
    """Expected values the checks compare against; tests swap in wrong ones."""

    M: float = 0.72348603329
    M_tol: float = 1e-11
    nu_hat: float = 0.211231196923
    nu_hat_tol: float = 1e-12
    times_1e6: tuple[int, int, int] = (2253, 211231, 415187)  # k_n, kbar_n, j_n
    times_tol: int = 2
    ratio_1e6: float = 0.72349  # after rounding to five decimals
    grid_points: int = 1331
    grid_feasible: int = 778
    z_max: float = 4.0


class Checker:
    """Counts operations and those that raised or failed an output check."""

    def __init__(self, pins: Pins):
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.findings: list[str] = []
        self._ok = True

    @contextmanager
    def op(self, label: str):
        self.attempted += 1
        self._ok = True
        try:
            yield
        except Exception as exc:  # a raising library call is a failed operation, not a crash
            self._fail(label, f"raised {exc!r}")
        if not self._ok:
            self.failed += 1

    def expect(self, ok: bool, label: str, what: str) -> None:
        if not ok:
            self._fail(label, what)

    def _fail(self, label: str, what: str) -> None:
        self._ok = False
        if len(self.findings) < 50:
            self.findings.append(f"{label}: {what}")


@dataclass
class PassTimes:
    """Seconds taken by each operation of one pass, per part, as ``(key, seconds)``.

    Every pass runs the same operations on the same inputs.  Operations with
    the same key do the same work, so the runner pools their repeats, within
    a pass and across passes, when it takes each operation's time.
    """

    ops: dict[str, list[tuple[object, float]]] = field(
        default_factory=lambda: {"a": [], "b": [], "c": []}
    )

    @contextmanager
    def timed(self, part: str, key: object):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.ops[part].append((key, time.perf_counter() - start))

    def run_spread(self, parts: dict[str, list[tuple[object, Callable[[], None]]]], tr: Tracer) -> None:
        """Run and time each part's ``(key, operation)`` list, every part spread over the pass.

        Operation ``j`` of a part with ``n`` operations runs at position
        ``(j + 0.5) / n`` of the pass.  A shared host's speed changes over
        spells of a fraction of a second to several seconds (on a 2-vCPU VM
        the sweep CSV takes 1.9 ms in some spells and 3.4 ms in others), so a
        part run as one block samples one short stretch of the pass; spread
        out, its operations sample all of it and the run's timings vary less.
        """
        order = sorted(
            ((j + 0.5) / len(ops), part, j)
            for part, ops in parts.items()
            for j in range(len(ops))
        )
        for _, part, j in order:
            key, operation = parts[part][j]
            with tr.span(f"bench.part_{part}"), self.timed(part, key):
                operation()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable  # (rostop, seed, tracer) -> inputs dict
    run_pass: Callable  # (rostop, inputs, tracer, checker) -> PassTimes
    items: Callable  # inputs -> {part: work items per pass}
    # Seconds one set-up and one pass take on a 2-vCPU x86-64 VM with the
    # library as of this benchmark's definition.  The runner makes
    # ``round(seconds / cycle_s)`` passes, so a run's pass count depends on
    # its ``--seconds`` alone, not on how fast the host is that day.
    cycle_s: float


def grid_points() -> list[tuple[float, float, float]]:
    """Grid values ``lo + i*step``, generated the way ``rostop.sweep`` does."""
    axes = [[lo + i * step for i in range(round((hi - lo) / step) + 1)] for lo, hi, step in GRID]
    return [(a, b, p) for a in axes[0] for b in axes[1] for p in axes[2]]


def _feasible_grid(rs, tr: Tracer) -> list[tuple[float, float, float]]:
    return [pt for pt in grid_points() if tr.call("instance.validate", rs.validate, *pt).passed]


def _check_csv(chk: Checker, label: str, text: str, header: str, rows: int, row: int, expected: str) -> None:
    """Header, row count and one data row (``row`` indexes data rows, -1 is the last)."""
    lines = text.split("\n")
    chk.expect(lines[0] == header and lines[-1] == "", label, "CSV header or final newline missing")
    data = lines[1:-1]
    chk.expect(len(data) == rows, label, f"{len(data)} CSV rows, expected {rows}")
    got = data[row] if data else None
    chk.expect(got == expected, label, f"CSV row {row} is {got!r}, expected {expected!r}")


def _threshold_csv(rs, tables, stride: int, tr: Tracer, chk: Checker, label: str) -> None:
    n = tables.n
    buf = io.StringIO()
    tr.call("dp.write_threshold_csv", rs.write_threshold_csv, tables, stride, buf, size=n)
    rows = len(range(1, n + 1, stride)) + (1 if (n - 1) % stride else 0)
    tr.count("dp.write_threshold_csv.rows", rows)
    last = f"{n},{float(tables.phi[n]):.15g},{float(tables.phibar[n]):.15g}"
    _check_csv(chk, label, buf.getvalue(), "k,phi,phibar", rows, -1, last)


def _analyse(rs, point, n: int, sandwich: bool, tr: Tracer, chk: Checker) -> None:
    """Full finite-size analysis of one instance, with its output checks."""
    label = f"analysis {point} n={n}"
    with chk.op(label):
        inst, _ = tr.call("instance.make_instance", rs.make_instance, *point, n, size=n)
        tables = tr.call("dp.compute_thresholds", rs.compute_thresholds, inst, size=n)
        tr.count("dp.steps", len(tables.phi) - 1)  # index 0 is padding
        times = tr.call("dp.acceptance_times", rs.acceptance_times, tables, inst, size=n)
        ratio = tr.call("dp.gambler_prophet_ratio", rs.gambler_prophet_ratio, inst, tables, size=n)
        exact = tr.call("prophet.prophet_exact", rs.prophet_exact, inst, size=n)
        if sandwich:
            report = tr.call(
                "asymptotics.verify_bound_sandwich", rs.verify_bound_sandwich, inst, tables, times,
                size=n,
            )
            chk.expect(report.passed, label, f"sandwich failed: {report.to_json()}")
        _threshold_csv(rs, tables, LARGE_STRIDE, tr, chk, label)

        chk.expect(
            times.k_n <= times.kbar_n <= times.j_n, label,
            f"acceptance times out of order: {times.k_n}, {times.kbar_n}, {times.j_n}",
        )
        optimal = ratio * exact  # the ratio is optimal_value / prophet_exact
        chk.expect(optimal <= exact, label, f"optimal_value {optimal!r} > prophet_exact {exact!r}")
        if point == REF and n == LARGE_N:
            pins = chk.pins
            got = (times.k_n, times.kbar_n, times.j_n)
            chk.expect(
                all(abs(g - e) <= pins.times_tol for g, e in zip(got, pins.times_1e6)), label,
                f"acceptance times {got}, expected {pins.times_1e6} within {pins.times_tol}",
            )
            chk.expect(
                round(ratio, 5) == pins.ratio_1e6, label,
                f"ratio {ratio!r} does not round to {pins.ratio_1e6}",
            )


# ---------------------------------------------------------------- finite-size


def _finite_size_setup(rs, seed: int, tr: Tracer) -> dict:
    feasible = _feasible_grid(rs, tr)
    rng = random.Random(seed)
    inst, _ = tr.call("instance.make_instance", rs.make_instance, *REF, CURVES_N, size=CURVES_N)
    curves = tr.call("dp.compute_thresholds", rs.compute_thresholds, inst, size=CURVES_N)
    return {
        "large": [REF] + rng.sample(feasible, SEEDED_LARGE_POINTS),
        "small": feasible,
        "curves": curves,
    }


def _finite_size_pass(rs, inp: dict, tr: Tracer, chk: Checker) -> PassTimes:
    def curves():
        with chk.op("curves"):
            _threshold_csv(rs, inp["curves"], 1, tr, chk, "curves")

    pt = PassTimes()
    pt.run_spread({
        "a": [(i, partial(_analyse, rs, point, LARGE_N, True, tr, chk))
              for i, point in enumerate(inp["large"])],
        "b": [(i, partial(_analyse, rs, point, SMALL_N, False, tr, chk))
              for i, point in enumerate(inp["small"])],
        "c": [("curves", curves)] * CURVES_REPEATS,
    }, tr)
    return pt


FINITE_SIZE = Workload(
    name="finite-size",
    why="dp does the work, bound none: long passes at n=1e6, 778 short ones at n=1e3, and "
    "the per-row curves CSV, so long-pass and per-call costs show apart",
    setup=_finite_size_setup,
    run_pass=_finite_size_pass,
    items=lambda inp: {
        "a": LARGE_N * len(inp["large"]),
        "b": len(inp["small"]),
        "c": CURVES_N * CURVES_REPEATS,
    },
    cycle_s=3.7,
)


# ----------------------------------------------------------------- bound-grid


def _bound_grid_setup(rs, seed: int, tr: Tracer) -> dict:
    feasible = _feasible_grid(rs, tr)
    rng = random.Random(seed)
    return {
        "spec": rs.SweepSpec(*GRID),
        "grid": grid_points(),
        "points": [REF] + rng.sample(feasible, CERT_SAMPLE),
    }


def _check_sweep(records, chk: Checker, label: str) -> None:
    pins = chk.pins
    feasible = [r for r in records if r.feasible]
    chk.expect(len(records) == pins.grid_points, label,
               f"{len(records)} grid points, expected {pins.grid_points}")
    chk.expect(len(feasible) == pins.grid_feasible, label,
               f"{len(feasible)} feasible points, expected {pins.grid_feasible}")
    chk.expect(records[: len(feasible)] == feasible, label, "infeasible points ranked before feasible")
    chk.expect(all(x.M <= y.M for x, y in zip(feasible, feasible[1:])), label,
               "feasible points not ranked ascending in M")


def _check_sweep_csv(records, csv_text: str, chk: Checker, label: str) -> None:
    best = records[0] if records else None
    first = None
    if best is not None:
        m = f"{best.M:.12g}" if best.M is not None else ""
        first = f"{best.a:.12g},{best.b:.12g},{best.p:.12g},{str(best.feasible).lower()},,{best.case},{m}"
    _check_csv(chk, label, csv_text, "a,b,p,feasible,failed_conditions,case,M", chk.pins.grid_points, 0,
               first)


def _counting(tr: Tracer, name: str, fn):
    """``fn`` with every call counted under ``name`` in the tracer."""

    def counted(*args, **kwargs):
        tr.count(name)
        return fn(*args, **kwargs)

    return counted


def _bound_grid_pass(rs, inp: dict, tr: Tracer, chk: Checker) -> PassTimes:
    pt = PassTimes()
    pins = chk.pins
    records = []
    with tr.span("bench.part_a"), pt.timed("a", "sweep"), chk.op("sweep"):
        validate = rs.sweep.validate
        if tr.enabled:  # count the sweep's own feasibility checks
            rs.sweep.validate = _counting(tr, "instance.validate.calls", validate)
        try:
            records = tr.call("sweep.run_sweep", rs.run_sweep, inp["spec"])
        finally:
            rs.sweep.validate = validate
        tr.count("sweep.points", len(records))
        tr.count("sweep.feasible", sum(r.feasible for r in records))
        _check_sweep(records, chk, "sweep")

    def certified_bound(point):
        label = f"certified bound {point}"
        with chk.op(label):
            hb = tr.call("bound.hardness_bound", rs.hardness_bound, *point)
            cert = tr.call("bound.certify", rs.certify, hb)
            tr.count("bound.points")
            tr.count("bound.iterations", hb.iterations)
            tr.count("bound.interior", hb.case == "interior")
            tr.count("bound.certify.grid_points", cert.grid_points)
            chk.expect(cert.qprime_sup < 1.0, label, f"qprime_sup {cert.qprime_sup!r} >= 1")
            chk.expect(
                cert.q_error_bound <= cert.nu_error_bound, label,
                f"q_error_bound {cert.q_error_bound!r} > nu_error_bound {cert.nu_error_bound!r}",
            )
            if point == REF:
                chk.expect(abs(hb.M - pins.M) <= pins.M_tol, label,
                           f"M = {hb.M!r}, expected {pins.M} within {pins.M_tol}")
                chk.expect(abs(hb.nu_hat - pins.nu_hat) <= pins.nu_hat_tol, label,
                           f"nu_hat = {hb.nu_hat!r}, expected {pins.nu_hat} within {pins.nu_hat_tol}")

    def sweep_csv():
        with chk.op("sweep csv"):
            buf = io.StringIO()
            tr.call("sweep.write_sweep_csv", rs.write_sweep_csv, records, buf)
            _check_sweep_csv(records, buf.getvalue(), chk, "sweep csv")

    # the CSV is written from this pass's sweep records, so the sweep runs first
    pt.run_spread({
        "b": [(i, partial(certified_bound, point)) for i, point in enumerate(inp["points"])],
        "c": [("sweep csv", sweep_csv)] * SWEEP_CSV_REPEATS,
    }, tr)
    return pt


BOUND_GRID = Workload(
    name="bound-grid",
    why="validate, asymptotics and bound do the work, dp none: serial 11^3 sweep throughput "
    "and single-point certified-bound latency, so a batch design that slows one point shows",
    setup=_bound_grid_setup,
    run_pass=_bound_grid_pass,
    items=lambda inp: {
        "a": len(inp["grid"]),
        "b": len(inp["points"]),
        "c": len(inp["grid"]) * SWEEP_CSV_REPEATS,  # CSV rows
    },
    cycle_s=3.4,
)


# ---------------------------------------------------------------- monte-carlo


def _monte_carlo_setup(rs, seed: int, tr: Tracer) -> dict:
    rng = random.Random(seed)
    out = {"seeds": [rng.randrange(2**32) for _ in range(3)]}
    for n in (SMALL_N, LARGE_N):
        inst, _ = tr.call("instance.make_instance", rs.make_instance, *REF, n, size=n)
        tables = tr.call("dp.compute_thresholds", rs.compute_thresholds, inst, size=n)
        out[n] = (inst, tables, rs.optimal_value(inst, tables))
    out["prophet_exact"] = rs.prophet_exact(out[SMALL_N][0])
    return out


def _simulate(rs, name: str, fn, args, expected: float, checked: bool,
              tr: Tracer, chk: Checker, outputs: dict) -> None:
    """One Monte Carlo call; ``args`` end with ``(trials, seed)``."""
    trials = args[-2]
    label = f"{name} ({trials} trials)"
    n = args[0].n
    with chk.op(label):
        report = tr.call(f"oracle.{fn.__name__}", fn, *args, size=n)
        tr.count("oracle.batches", math.ceil(trials / rs.oracle.TRIALS_PER_BATCH))
        chk.expect(report.trials == trials, label, f"report has {report.trials} trials")
        chk.expect(sum(report.stop_histogram.values()) == trials, label,
                   "stop histogram does not sum to the trial count")
        z = (report.mean - expected) / report.std_error if report.std_error > 0 else math.inf
        outputs[f"oracle.{name}.z"] = z
        outputs[f"oracle.{name}.abs_z"] = abs(z)
        outputs[f"oracle.{name}.sd_per_trial"] = report.std_error * math.sqrt(trials)
        outputs[f"oracle.{name}.mean"] = report.mean
        if checked:
            chk.expect(abs(z) <= chk.pins.z_max, label, f"z = {z:.3f} beyond {chk.pins.z_max}")


def _monte_carlo_pass(rs, inp: dict, tr: Tracer, chk: Checker) -> PassTimes:
    pt = PassTimes()
    outputs = inp.setdefault("outputs", {})
    s_policy, s_large, s_prophet = inp["seeds"]
    inst3, tables3, opt3 = inp[SMALL_N]
    inst6, tables6, opt6 = inp[LARGE_N]
    with tr.span("bench.part_a"), pt.timed("a", "policy_n1e3"):
        _simulate(rs, "policy_n1e3", rs.simulate_policy, (inst3, tables3, POLICY_SMALL_TRIALS, s_policy),
                  opt3, True, tr, chk, outputs)
    with tr.span("bench.part_b"), pt.timed("b", "policy_n1e6"):
        # Recorded, not checked: the top atom is barely sampled at this size.
        _simulate(rs, "policy_n1e6", rs.simulate_policy, (inst6, tables6, POLICY_LARGE_TRIALS, s_large),
                  opt6, False, tr, chk, outputs)
    with tr.span("bench.part_c"), pt.timed("c", "prophet_n1e3"):
        _simulate(rs, "prophet_n1e3", rs.simulate_prophet, (inst3, PROPHET_TRIALS, s_prophet),
                  inp["prophet_exact"], True, tr, chk, outputs)
    return pt


MONTE_CARLO = Workload(
    name="monte-carlo",
    why="oracle does the work: policy walk at n=1e3 and 1e6 and the prophet sampler whose "
    "cost grows with n; tables are built in set-up",
    setup=_monte_carlo_setup,
    run_pass=_monte_carlo_pass,
    items=lambda inp: {"a": POLICY_SMALL_TRIALS, "b": POLICY_LARGE_TRIALS, "c": PROPHET_TRIALS},
    cycle_s=2.2,
)

WORKLOADS = {w.name: w for w in (FINITE_SIZE, BOUND_GRID, MONTE_CARLO)}
