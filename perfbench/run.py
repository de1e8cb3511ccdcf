"""Run one rostop benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload finite-size --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The library is imported from the checkout's ``src`` directory; nothing is
built or installed.  The run repeats set-up (a fresh import of rostop, the
generated inputs and the tables the workload takes as given) followed by the
workload's timed pass a fixed number of times, ``--seconds`` divided by the
workload's nominal cycle time, so that a run takes about ``--seconds`` on the
reference host and every run's statistics are taken over the same number of
repeats.  Every pass runs the same operations on the same inputs.
``setup_s`` is the median set-up.  Each operation's time is the upper
quartile of its repeats over the run.  On a shared host an operation runs at
one of two speeds, spell by spell (the sweep CSV takes about 2 ms in some
spells and 4 ms in most, on a 2-vCPU VM), and the share of fast spells
changes from run to run.  A fastest repeat needs a fast spell in every run,
and a median moves to the fast cluster as that share nears one half; the
upper quartile stays in the common, slower cluster until fast spells fill
about three quarters of the run.  In ten-seed sets on that VM it spread
about half as much between runs as the median did.  A part's time is one
pass's operations at those times, ``wall_s`` the sum over the parts, and the
latency percentiles are taken over part (b)'s operations.  Each part's
operations are spread over the pass rather than run as one block
(``PassTimes.run_spread``), so that their repeats sample the whole run and
not a few short stretches of it.  A run whose next pass would end after
``OVERRUN`` times ``--seconds`` stops early and records its pass count.
With ``--trace 1`` untraced and traced passes alternate: the traced ones give
the per-layer metrics, and the difference between the two kinds of pass is
the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
name each metric the way the workload defines it, with its unit and sample
count.  A full report with provenance goes to ``.perfbench-out/`` in the
checkout, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("finite-size", "bound-grid", "monte-carlo")
OVERRUN = 1.25  # a run's passes end by this multiple of --seconds


def _import_rostop():
    """Import rostop afresh, so each set-up repeat pays the library's import."""
    for name in [m for m in sys.modules if m == "rostop" or m.startswith("rostop.")]:
        del sys.modules[name]
    return importlib.import_module("rostop")


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def provenance(rs, workloads: list[str], seed: int, args) -> dict:
    import numpy

    from perfbench import workloads as wl

    return {
        "host_cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rostop": rs.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": workloads,
        "input_sizes": {
            "large_n": wl.LARGE_N,
            "small_n": wl.SMALL_N,
            "curves_n": wl.CURVES_N,
            "curves_repeats": wl.CURVES_REPEATS,
            "sweep_csv_repeats": wl.SWEEP_CSV_REPEATS,
            "large_stride": wl.LARGE_STRIDE,
            "seeded_large_points": wl.SEEDED_LARGE_POINTS,
            "grid": wl.GRID,
            "certified_sample": wl.CERT_SAMPLE,
            "policy_trials_small_n": wl.POLICY_SMALL_TRIALS,
            "policy_trials_large_n": wl.POLICY_LARGE_TRIALS,
            "prophet_trials": wl.PROPHET_TRIALS,
        },
    }


def _layer_value(layer, tr, values: dict) -> float:
    kind, *arg = layer.source
    passes = tr.runs("pass-")
    setups = tr.runs("setup-")

    def med(xs):
        xs = list(xs)
        return statistics.median(xs) if xs else 0.0

    def per_run(runs, fn):
        return med(fn(run) for run in runs)

    def total_ms(run, name):
        return sum(s.ms for s in tr.spans if s.run_id == run and s.name == name)

    if kind == "call":
        name, size, scale = arg
        return med(tr.call_ms(name, "pass-", size)) * scale
    if kind == "setup_call":
        name, scale = arg
        return med(tr.call_ms(name, "setup-")) * scale
    if kind == "total":
        return per_run(passes, lambda r: total_ms(r, arg[0]))
    if kind == "setup_total":
        return per_run(setups, lambda r: total_ms(r, arg[0]))
    if kind == "counter":
        return per_run(passes, lambda r: tr.counters[r].get(arg[0], 0.0))
    if kind == "ratio":
        key, base = arg
        return per_run(
            passes,
            lambda r: tr.counters[r].get(key, 0.0) / tr.counters[r][base]
            if tr.counters[r].get(base)
            else 0.0,
        )
    if kind == "self":
        self_ms = tr.self_ms()
        return per_run(passes, lambda r: self_ms[r].get(arg[0], 0.0))
    if kind == "value":
        return values.get(arg[0], 0.0)
    raise ValueError(f"unknown layer source {kind!r}")


def _traced_extras(name: str, rs, inputs: dict, chk) -> dict:
    """One-off traced measurements that would distort the timed passes."""
    from perfbench import workloads as wl

    if name == "finite-size":
        # tracemalloc slows the Python loop many times over, so it gets one call
        inst, _ = rs.make_instance(*wl.REF, wl.LARGE_N)
        tracemalloc.start()
        try:
            rs.compute_thresholds(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"dp.compute_thresholds.peak_alloc_mb": peak / 2**20}
    if name == "bound-grid":
        out = {}
        with chk.op("sweep with 2 workers"):
            start = time.perf_counter()
            records = rs.run_sweep(inputs["spec"], 2)
            out["sweep.run_sweep.workers2.s"] = time.perf_counter() - start
            parallel, serial = io.StringIO(), io.StringIO()
            rs.write_sweep_csv(records, parallel)
            rs.write_sweep_csv(rs.run_sweep(inputs["spec"]), serial)
            chk.expect(parallel.getvalue() == serial.getvalue(), "sweep with 2 workers",
                       "parallel sweep CSV differs from the serial one")
        return out
    return {}


def _op_seconds(passes: list, part: str) -> dict:
    """Upper quartile of each operation key's times in ``part``, over all its repeats."""
    times: dict = {}
    for pt in passes:
        for key, seconds in pt.ops[part]:
            times.setdefault(key, []).append(seconds)
    return {key: statistics.quantiles(ts, n=4)[2] if len(ts) > 1 else ts[0]
            for key, ts in times.items()}


def run_workload(name: str, seed: int, seconds: float, traced: bool, args) -> dict:
    import numpy  # noqa: F401  (a dependency: imported before set-up is timed)

    from perfbench import metrics
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, Checker, Pins

    wl = WORKLOADS[name]
    tr = Tracer(traced)
    chk = Checker(Pins())

    # A set-up precedes every pass, so set-up repeats are spread over the run
    # like the operations' repeats.
    planned = max(2 if traced else 1, round(seconds / wl.cycle_s))
    setup_s: list[float] = []
    walls = {False: [], True: []}
    untraced: list = []  # PassTimes of the untraced passes
    begin = time.perf_counter()
    for i in range(planned):
        # on a host far slower than the reference one, stop near the budget
        elapsed = time.perf_counter() - begin
        if i >= (2 if traced else 1) and elapsed + elapsed / i > OVERRUN * seconds:
            break
        tracing = traced and i % 2 == 1
        tr.enabled = tracing
        tr.run_id = f"setup-{i}"
        rs = inputs = None  # the previous pass's inputs must not count toward peak RSS
        gc.collect()
        start = time.perf_counter()
        rs = _import_rostop()
        inputs = wl.setup(rs, seed, tr)
        setup_s.append(time.perf_counter() - start)
        tr.run_id = f"pass-{i}" if tracing else f"untraced-{i}"
        gc.collect()
        start = time.perf_counter()
        with tr.span("bench.pass"):
            pt = wl.run_pass(rs, inputs, tr, chk)
        walls[tracing].append(time.perf_counter() - start)
        if not tracing:
            untraced.append(pt)
        del pt
    tr.enabled = False
    items = wl.items(inputs)

    values = dict(inputs.get("outputs", {}))
    named = metrics.NAMED[name]
    rows = []  # (shared name, workload name, value, unit, samples)
    if traced:
        values.update(_traced_extras(name, rs, inputs, chk))
        values["trace.overhead_ms"] = (
            statistics.median(walls[True]) - statistics.median(walls[False])
        ) * 1e3
        out_metrics = {
            layer.name: {"value": _layer_value(layer, tr, values), "unit": layer.unit}
            for layer in metrics.LAYERS
        }
        for layer in metrics.LAYERS:
            if layer.workload in (name, "all"):
                rows.append((layer.name, f"moves {layer.moves}",
                             out_metrics[layer.name]["value"], layer.unit, len(walls[True])))
    else:
        part_s, op_ms, samples = {}, [], {}
        for p in "abc":
            op_s = _op_seconds(untraced, p)
            # a part's time: every operation of one pass, each at its upper quartile
            part_s[p] = sum(op_s[key] for key, _ in untraced[0].ops[p])
            samples[p] = sum(len(pt.ops[p]) for pt in untraced)
            if p == "b":
                op_ms = [t * 1e3 for t in op_s.values()]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values_e2e = {
            "setup_s": (statistics.median(setup_s), len(setup_s)),
            "wall_s": (sum(part_s.values()), len(walls[False])),
            "peak_rss_mb": (rss_mb, 1),
            "part_b.op_ms.p50": (statistics.median(op_ms), len(op_ms)),
        }
        for p in "abc":
            values_e2e[f"part_{p}.per_s"] = (items[p] / part_s[p], samples[p])
        out_metrics = {
            m.name: {"value": values_e2e[m.name][0], "unit": m.unit} for m in metrics.END_TO_END
        }
        for m in metrics.END_TO_END:
            label, unit = named.get(m.name, (m.name, m.unit))
            value, n_samples = values_e2e[m.name]
            rows.append((m.name, label, value, unit, n_samples))
        tail = metrics.TAIL_PERCENTILE[name]
        if tail is not None:
            label, unit = named["tail"]
            rows.append(("-", label, percentile(op_ms, tail), unit, len(op_ms)))
    rows.append(("-", "fail_ratio", chk.failed / chk.attempted, "ratio", chk.attempted))

    report = {
        "workload": name,
        "provenance": provenance(rs, [name], seed, args),
        "passes": {"planned": planned, "untraced": len(walls[False]), "traced": len(walls[True])},
        "pass_s": {"untraced": walls[False], "traced": walls[True], "setup": setup_s},
        "op_s": [pt.ops for pt in untraced],
        "rows": [
            {"metric": r[0], "name": r[1], "value": r[2], "unit": r[3], "samples": r[4]}
            for r in rows
        ],
        "layer_self_ms": {run: dict(v) for run, v in tr.self_ms().items()} if traced else {},
        "outputs": values,
        "findings": chk.findings,
        "result": {
            "correct": chk.failed == 0,
            "attempted": chk.attempted,
            "failed": chk.failed,
            "metrics": out_metrics,
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    if traced:
        tr.write_jsonl(OUT_DIR / f"{stem}.spans.jsonl")
    return report


def _print_rows(report: dict) -> None:
    res = report["result"]
    print(
        f"# {report['workload']}: {report['passes']['untraced']} untraced and "
        f"{report['passes']['traced']} traced passes of {report['passes']['planned']} planned, "
        f"{res['failed']} of {res['attempted']} operations failed"
    )
    for row in report["rows"]:
        print(f"{row['metric']:<38} {row['name']:<40} {row['value']:>14.6g} {row['unit']:<12} "
              f"n={row['samples']}")
    for finding in report["findings"]:
        print(f"FAILED {finding}")
    for key, value in sorted(report["outputs"].items()):
        print(f"output {key} = {value!r}")


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "rostop" / "__init__.py").is_file():
        sys.stderr.write(f"rostop sources not found under {ROOT / 'src'}; run from a checkout\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    if args.workload == "all":
        return _run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args)
    _print_rows(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
