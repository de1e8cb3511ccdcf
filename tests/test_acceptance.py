"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one `criterion NN PASS|FAIL` line (run with `-s` to see
them live) and asserts the same condition, so the suite both documents and
enforces the contract.
"""

import itertools
import time

import numpy as np
import pytest

from rostop import (
    InfeasibleInstanceError,
    InstanceParams,
    compute_thresholds,
    exhaustive_optimal_value,
    gambler_prophet_ratio,
    hardness_bound,
    lambda_mu_star,
    make_instance,
    optimal_value,
    prophet_exact,
    prophet_limit,
    q_eval,
    run_sweep,
    simulate_policy,
    simulate_prophet,
    verify_bound_sandwich,
    write_sweep_csv,
)
from rostop.asymptotics import _q_derivatives
from rostop.oracle import _continuation_table
from rostop.sweep import SweepSpec

from conftest import REF_PARAMS, PERTURBED
from test_dp import _backward_loop


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_bound_reproduction():
    start = time.perf_counter()
    hb = hardness_bound(*REF_PARAMS)
    elapsed = time.perf_counter() - start
    ok = (
        abs(hb.M - 0.72348603329) < 1e-11
        and abs(hb.nu_hat - 0.211231196923) < 1e-12
        and elapsed < 1.0
    )
    _report(1, ok, f"M={hb.M:.12f} nu_hat={hb.nu_hat:.13f} time={elapsed:.3f}s")


def test_criterion_02_dp_ratio_reproduction(ref_dp):
    inst4, tables4, _ = ref_dp.get(10**4)
    r4 = gambler_prophet_ratio(inst4, tables4)
    inst5, tables5, _ = ref_dp.get(10**5)
    r5 = gambler_prophet_ratio(inst5, tables5)
    start = time.perf_counter()
    inst6, _ = make_instance(*REF_PARAMS, 10**6)
    r6 = gambler_prophet_ratio(inst6, compute_thresholds(inst6))
    elapsed = time.perf_counter() - start
    ok = (
        abs(r4 - 0.72354) <= 1e-4
        and abs(r5 - 0.72349) <= 1e-4
        and abs(r6 - 0.72349) <= 1e-4
        and elapsed < 5.0
    )
    _report(
        2, ok, f"ratio(1e4)={r4:.6f} ratio(1e5)={r5:.6f} ratio(1e6)={r6:.6f} "
        f"fresh 1e6 run {elapsed:.2f}s"
    )


def test_criterion_03_acceptance_times_at_1e6(ref_dp):
    _, _, times = ref_dp.get(10**6)
    ok = (
        abs(times.k_n - 2253) <= 2
        and abs(times.kbar_n - 211231) <= 2
        and abs(times.j_n - 415187) <= 2
    )
    _report(3, ok, f"k={times.k_n} kbar={times.kbar_n} j={times.j_n}")


def test_criterion_04_ordering_invariant(ref_dp):
    triples = []
    ok = True
    for n in (10**3, 10**4, 10**5, 10**6):
        _, _, times = ref_dp.get(n)
        triples.append((n, times.k_n, times.kbar_n, times.j_n))
        ok = ok and times.k_n <= times.kbar_n <= times.j_n
    _report(4, ok, "; ".join(f"n={n}: {k}<={kb}<={j}" for n, k, kb, j in triples))


def test_criterion_05_oracle_equivalence():
    worst = 0.0
    points = (REF_PARAMS,) + PERTURBED
    for (a, b, p), n in itertools.product(points, range(1, 7)):
        inst = InstanceParams(a, b, p, n)
        if n == 1:  # formal weights: the pass refuses them, the reference loop takes them
            with pytest.raises(InfeasibleInstanceError, match="pmf"):
                compute_thresholds(inst)
            dp_value = _backward_loop(inst)[1][0]
        else:
            dp_value = optimal_value(inst, compute_thresholds(inst))
        worst = max(worst, abs(exhaustive_optimal_value(inst) - dp_value))
        # exact collapse of the history table onto (depth, constant-seen)
        classes = {}
        for history, gamma in _continuation_table(inst).items():
            key = (len(history), a in history)
            classes.setdefault(key, set()).add(gamma)
        assert all(len(v) == 1 for v in classes.values())
    ok = worst <= 1e-12
    _report(5, ok, f"max |exhaustive - dp| = {worst:.2e} over 4 points x n=1..6")


def test_criterion_06_closed_form_consistency(ref_dp):
    # The pass writes phi's low regime in closed form; the step-by-step loop
    # runs the recursion itself, so the two share no arithmetic.
    inst, tables, times = ref_dp.get(10**5)
    span = slice(times.k_n, inst.n + 1)
    loop_phi = _backward_loop(inst)[0][span]
    worst = float(np.max(np.abs(loop_phi - tables.phi[span]) / tables.phi[span]))
    ok = worst <= 1e-9
    _report(6, ok, f"max relative deviation from the step-by-step loop on [k_n, n] = "
            f"{worst:.2e}")


def test_criterion_07_asymptotic_convergence(ref_dp):
    prof = lambda_mu_star(*REF_PARAMS)
    j_gaps, k_gaps = [], []
    for n in (10**3, 10**4, 10**5, 10**6):
        _, _, times = ref_dp.get(n)
        j_gaps.append(abs(times.lambda_n - prof.lambda_star))
        k_gaps.append(abs(times.mu_n - prof.mu_star))
    j_factors = [g1 / g2 for g1, g2 in zip(j_gaps, j_gaps[1:])]
    k_factors = [g1 / g2 for g1, g2 in zip(k_gaps, k_gaps[1:])]
    ok = all(f >= 5.0 for f in j_factors + k_factors)
    _report(
        7, ok,
        "j factors " + "/".join(f"{f:.1f}" for f in j_factors)
        + ", k factors " + "/".join(f"{f:.1f}" for f in k_factors),
    )


def test_criterion_08_prophet_consistency(ref_dp):
    limit = prophet_limit(*REF_PARAMS)
    gaps = {}
    for n in (10**3, 10**4, 10**5, 10**6):
        inst, _, _ = ref_dp.get(n)
        gaps[n] = abs(prophet_exact(inst) - limit)
    # Calibrated constant: n*gap creeps up toward its asymptote (~1.4177),
    # about 0.1% above the n=1e3 value, so the frozen calibration applies a
    # 1.25x margin; the gap itself must still shrink monotonically.
    c = 1.25 * 10**3 * gaps[10**3]
    bound_ok = all(gaps[n] <= c / n for n in (10**4, 10**5, 10**6))
    monotone_ok = gaps[10**3] > gaps[10**4] > gaps[10**5] > gaps[10**6]
    inst3, _, _ = ref_dp.get(10**3)
    mc = simulate_prophet(inst3, trials=10**6, seed=20240808)
    z = (mc.mean - prophet_exact(inst3)) / mc.std_error
    ok = bound_ok and monotone_ok and abs(z) <= 4.0
    _report(
        8, ok,
        f"C={c:.4f}, gaps {gaps[10**3]:.2e}/{gaps[10**4]:.2e}/{gaps[10**5]:.2e}/"
        f"{gaps[10**6]:.2e}, MC z={z:+.2f}",
    )


def test_criterion_09_policy_simulation_consistency(ref_dp):
    inst, tables, _ = ref_dp.get(10**3)
    mc = simulate_policy(inst, tables, trials=10**6, seed=20240809)
    target = optimal_value(inst, tables)
    z = (mc.mean - target) / mc.std_error
    ok = abs(z) <= 4.0
    _report(9, ok, f"mean={mc.mean:.5f} target={target:.5f} z={z:+.2f}")


def test_criterion_10_derivative_checks():
    a, b, p = REF_PARAMS
    prof = lambda_mu_star(a, b, p)
    h = 1e-5
    worst_rel = 0.0
    for nu in np.linspace(prof.mu_star + h, prof.lambda_star - h, 1000):
        nu = float(nu)
        fd = (
            q_eval(a, b, p, prof.lambda_star, prof.mu_star, nu + h)
            - q_eval(a, b, p, prof.lambda_star, prof.mu_star, nu - h)
        ) / (2.0 * h)
        q1 = _q_derivatives(a, b, p, prof.lambda_star, prof.mu_star, nu)[0]
        worst_rel = max(worst_rel, abs(fd - q1) / max(abs(q1), abs(fd)))
    q3_ok = all(
        _q_derivatives(a, b, p, prof.lambda_star, prof.mu_star, float(nu))[2] > 0.0
        for nu in np.linspace(prof.mu_star, prof.lambda_star, 1000)
    )
    q1_lam = _q_derivatives(a, b, p, prof.lambda_star, prof.mu_star, prof.lambda_star)[0]
    ok = worst_rel <= 1e-6 and q3_ok and q1_lam <= 0.0
    _report(
        10, ok,
        f"worst fd mismatch {worst_rel:.2e}, q''' > 0 on grid: {q3_ok}, "
        f"q'(lambda*)={q1_lam:+.4f}",
    )


def test_criterion_11_sandwich_diagnostics(ref_dp):
    details = []
    ok = True
    for n in (10**4, 10**6):
        inst, tables, times = ref_dp.get(n)
        report = verify_bound_sandwich(inst, tables, times)
        ok = ok and report.passed
        details.append(
            f"n={n}: "
            + " ".join(f"{c.check}={c.worst_margin:.1e}" for c in report.checks)
        )
    _report(11, ok, "; ".join(details))


def test_criterion_12_sweep_regression(tmp_path):
    spec = SweepSpec(
        a=(0.789, 0.809, 0.01), b=(1.24, 1.26, 0.01), p=(0.421, 0.441, 0.01)
    )
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    rec = next(r for r in serial if (r.a, r.b, r.p) == REF_PARAMS)
    s_path = tmp_path / "serial.csv"
    p_path = tmp_path / "parallel.csv"
    with open(s_path, "w", newline="\n") as fh:
        write_sweep_csv(serial, fh)
    with open(p_path, "w", newline="\n") as fh:
        write_sweep_csv(parallel, fh)
    identical = s_path.read_bytes() == p_path.read_bytes()
    ok = rec.feasible and abs(rec.M - 0.72348603329) < 1e-11 and identical
    _report(
        12, ok,
        f"reference point feasible={rec.feasible} M={rec.M:.12f} "
        f"serial==parallel bytes: {identical}",
    )


def test_criterion_13_richardson_step_reaches_the_bound():
    # r_n = M + c1/n + O(1/n^2): one Richardson step 2 r_{2n} - r_n lands on
    # M from the backward pass alone, and n (r_n - M) settles to c1.  The last
    # point fails the sandwich's ordering check, yet its limit is still M.
    n = 10**5
    worst_gap = worst_c1 = 0.0
    for point in (REF_PARAMS, *PERTURBED, (0.75, 1.28, 0.48)):
        r = {}
        for size in (n, 2 * n):
            inst, _ = make_instance(*point, size)
            r[size] = gambler_prophet_ratio(inst, compute_thresholds(inst))
        M = hardness_bound(*point).M
        worst_gap = max(worst_gap, abs(2.0 * r[2 * n] - r[n] - M))
        worst_c1 = max(worst_c1, abs(n * (r[n] - M) - 2 * n * (r[2 * n] - M)))
    ok = worst_gap <= 1e-10 and worst_c1 <= 1e-5
    _report(
        13, ok,
        f"max |2 r_2n - r_n - M| = {worst_gap:.1e}, "
        f"max |n (r_n - M) at n and 2n apart| = {worst_c1:.1e}, n = {n}",
    )
