"""Command-line entry point.

Subcommands: validate, dp, bound, simulate, sweep, figure.  dp, simulate,
figure and the sweep's ``--n`` cross-check need a real law (``make_instance``);
validate, bound and sweep check all eight rows (sweep keeps failing points in
its CSV).  Exit codes: 0 success, 1 a failed gate (a law row, or any row for
validate/bound), 2 usage error (including ``b >= n``, seeds outside
``[0, 2**64)``, tolerances the bisection cannot meet and sizes above
``dp.MAX_TABLE_N`` where tables are built) or a numerical check that fails at a
feasible point (``ConsistencyError``, ``CertificationError``), reported on one ``error:`` line.
Parameters may come from flags or from a flat key-value config file
(``--config``; keys a, b, p, n only, n an integer as ``--n`` parses it;
``key = value`` lines, ``#`` comments); flags win over the file.  All
outputs are deterministic given the flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bound import (
    DEFAULT_RTOL, DEFAULT_XTOL, CertificationError, MaxIterationsError, certify, hardness_bound
)
from .dp import (
    ConsistencyError,
    acceptance_times,
    compute_thresholds,
    optimal_value,
    write_threshold_csv,
)
from .instance import InfeasibleInstanceError, make_instance, validate
from .oracle import simulate_policy, simulate_prophet, write_histogram_csv
from .prophet import prophet_exact
from .sweep import SweepSpec, dp_cross_check, refine, run_sweep, write_sweep_csv

__all__ = ["main"]


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(x) for x in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return lo, hi, step


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _read_config(path: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ValueError(f"config line not key=value: {raw!r}")
        key, val = key.strip(), val.strip()
        if key not in ("a", "b", "p", "n"):
            raise ValueError(f"unknown config key {key!r} (expected one of a, b, p, n)")
        if key in values:
            raise ValueError(f"config key {key!r} is given twice")
        if key == "n":  # int(), as --n: through a float, 10^17 + 1 would round
            try:
                values[key] = int(val)
            except ValueError:
                raise ValueError(f"config n must be an integer, got {val!r}") from None
        else:
            values[key] = float(val)
    return values


def _merge_params(args, names: tuple[str, ...]) -> None:
    if getattr(args, "config", None):
        cfg = _read_config(args.config)
        for name in names:
            if getattr(args, name, None) is None and name in cfg:
                setattr(args, name, cfg[name])
    missing = [n for n in names if getattr(args, n, None) is None and n != "n"]
    if missing:
        flags = ", ".join(f"--{m}" for m in missing)
        print(f"error: missing required parameter(s): {flags}", file=sys.stderr)
        raise SystemExit(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rostop",
        description="Backward-induction analysis and hardness bounds for "
        "random-order stopping on the three-point hard instance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_abp(sp, with_n: bool):
        sp.add_argument("--a", type=float, help="constant value in (0, 1)")
        sp.add_argument("--b", type=float, help="nontrivial value, > 1")
        sp.add_argument("--p", type=float, help="mass scale, > 0")
        if with_n:
            sp.add_argument(
                "--n", type=int, required=False, help="instance size (iid draws)"
            )
        sp.add_argument("--config", help="flat key=value file with a, b, p, n")

    sp = sub.add_parser("validate", help="evaluate all feasibility checks")
    add_abp(sp, with_n=True)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("dp", help="run the backward induction at size n")
    add_abp(sp, with_n=True)
    sp.add_argument("--thresholds-out", help="write k,phi,phibar CSV here")
    sp.add_argument("--stride", type=_positive_int, default=1)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("bound", help="certified hardness bound M(a,b,p)")
    add_abp(sp, with_n=False)
    sp.add_argument("--xtol", type=float, default=DEFAULT_XTOL)
    sp.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("simulate", help="seeded Monte Carlo of the optimal rule")
    add_abp(sp, with_n=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--prophet", action="store_true", help="simulate the offline maximum instead")
    sp.add_argument("--histogram-out", help="write step,count CSV here")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("sweep", help="grid search ranked by the bound")
    sp.add_argument("--a", type=_parse_range, required=True, metavar="LO:HI:STEP")
    sp.add_argument("--b", type=_parse_range, required=True, metavar="LO:HI:STEP")
    sp.add_argument("--p", type=_parse_range, required=True, metavar="LO:HI:STEP")
    sp.add_argument("--n", type=_positive_int, help="cross-check the best point at this size")
    sp.add_argument("--refine", type=int, default=0, metavar="ROUNDS")
    sp.add_argument("--shrink", type=float, default=2.0)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("figure", help="emit the future-reward curves as CSV")
    add_abp(sp, with_n=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--stride", type=_positive_int, default=1)
    return parser


def _cmd_validate(args) -> int:
    report = validate(args.a, args.b, args.p, args.n)
    if args.json:
        print(report.to_json())
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"{c.name}: lhs={c.lhs:.12g} rhs={c.rhs:.12g} {status}")
    return 0 if report.passed else 1


def _cmd_dp(args) -> int:
    inst, _ = make_instance(args.a, args.b, args.p, args.n)
    tables = compute_thresholds(inst)
    times = acceptance_times(tables, inst)
    opt = optimal_value(inst, tables)
    exact = prophet_exact(inst)
    payload = {
        "n": inst.n,
        "optimal_value": opt,
        "prophet_exact": exact,
        "ratio": opt / exact,
        "k_n": times.k_n,
        "kbar_n": times.kbar_n,
        "j_n": times.j_n,
        "mu_n": times.mu_n,
        "nu_n": times.nu_n,
        "lambda_n": times.lambda_n,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"optimal_value = {opt:.12f}")
        print(f"prophet_exact = {exact:.12f}")
        print(f"ratio = {opt / exact:.12f}")
        print(f"k_n = {times.k_n}  kbar_n = {times.kbar_n}  j_n = {times.j_n}")
        print(
            f"mu_n = {times.mu_n:.12f}  nu_n = {times.nu_n:.12f}  "
            f"lambda_n = {times.lambda_n:.12f}"
        )
    if args.thresholds_out:
        with open(args.thresholds_out, "w", newline="\n") as fh:
            write_threshold_csv(tables, args.stride, fh)
    return 0


def _cmd_bound(args) -> int:
    hb = hardness_bound(args.a, args.b, args.p, xtol=args.xtol, rtol=args.rtol)
    cert = certify(hb)
    if args.json:
        payload = json.loads(hb.to_json())
        payload["qprime_sup"] = cert.qprime_sup
        print(json.dumps(payload))
    else:
        print(f"case = {hb.case}")
        print(f"lambda_star = {hb.lambda_star:.12f}  mu_star = {hb.mu_star:.12f}")
        print(f"nu_hat = {hb.nu_hat:.12f}")
        print(f"m = {hb.m:.12f}")
        print(f"M = {hb.M:.12f}")
        print(
            f"nu_error_bound = {hb.nu_error_bound:.3g}  "
            f"q_error_bound = {hb.q_error_bound:.3g}  iterations = {hb.iterations}"
        )
        print(f"certificate: sup|q'| = {cert.qprime_sup:.3g} (< 1)")
    return 0


def _cmd_simulate(args) -> int:
    inst, _ = make_instance(args.a, args.b, args.p, args.n)
    if args.prophet:
        report = simulate_prophet(inst, args.trials, args.seed)
    else:
        tables = compute_thresholds(inst)
        report = simulate_policy(inst, tables, args.trials, args.seed)
    if args.json:
        print(report.to_json())
    else:
        kind = "prophet" if args.prophet else "policy"
        print(f"simulation = {kind}")
        print(f"trials = {report.trials}  seed = {report.seed}")
        print(f"mean = {report.mean:.12f}")
        print(f"std_error = {report.std_error:.12f}")
    if args.histogram_out:
        with open(args.histogram_out, "w", newline="\n") as fh:
            write_histogram_csv(report, fh)
    return 0


def _cmd_sweep(args) -> int:
    spec = SweepSpec(
        a=args.a, b=args.b, p=args.p, n=args.n,
        refine_rounds=args.refine, shrink=args.shrink,
    )
    records = run_sweep(spec)
    with open(args.out, "w", newline="\n") as fh:
        write_sweep_csv(records, fh)
    feasible = [r for r in records if r.feasible]
    print(f"grid points = {len(records)}  feasible = {len(feasible)}")
    if feasible:
        best = feasible[0]
        if spec.refine_rounds:
            best = refine(best, spec)
        print(f"best: a={best.a:.12g} b={best.b:.12g} p={best.p:.12g} M={best.M:.12f}")
        if spec.n is not None:
            ratio = dp_cross_check(best, spec.n)
            print(f"dp ratio at n={spec.n}: {ratio:.12f} (M - ratio = {best.M - ratio:.3g})")
    return 0


def _cmd_figure(args) -> int:
    inst, _ = make_instance(args.a, args.b, args.p, args.n)
    tables = compute_thresholds(inst)
    with open(args.out, "w", newline="\n") as fh:
        write_threshold_csv(tables, args.stride, fh)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "validate": (_cmd_validate, ("a", "b", "p", "n")),
    "dp": (_cmd_dp, ("a", "b", "p", "n")),
    "bound": (_cmd_bound, ("a", "b", "p")),
    "simulate": (_cmd_simulate, ("a", "b", "p", "n")),
    "sweep": (_cmd_sweep, ()),
    "figure": (_cmd_figure, ("a", "b", "p", "n")),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        handler, names = _COMMANDS[args.command]
        _merge_params(args, names)
        if "n" in names and args.command != "validate" and args.n is None:
            parser.error(f"{args.command} requires --n")
        return handler(args)
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        for c in exc.report.checks:
            if not c.passed:
                print(f"  {c.name}: lhs={c.lhs:.12g} rhs={c.rhs:.12g} FAIL", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, ValueError, MaxIterationsError, ConsistencyError, CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
