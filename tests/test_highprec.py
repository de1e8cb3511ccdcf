"""High-precision cross-checks of the float64 numerics.

Re-runs the backward recursion and the maximum's expectation in 30- to
50-digit arithmetic and bounds the double-precision drift.  This is the
quantitative backing for treating ~1e-12 discrepancies as rounding noise
elsewhere.
"""

import numpy as np
import pytest
from mpmath import mp, mpf

import rostop.dp as dp_module
from rostop import (
    acceptance_times,
    compute_thresholds,
    make_instance,
    optimal_value,
    prophet_exact,
)

from conftest import PERTURBED, REF_PARAMS, tail_sums


def _mp_params():
    return mpf("0.789"), mpf("1.24"), mpf("0.421")


def _mp_tables(n, params=None):
    a, b, p = params or _mp_params()
    w_top = mpf(1) / (n * n)
    w_mid = p / n
    w_zero = 1 - w_mid - w_top
    phi = [mpf(0)] * (n + 1)
    phibar = [mpf(0)] * (n + 1)
    phi[n] = (1 + b * p) / n
    phibar[n] = a
    for k in range(n - 1, -1, -1):
        rem = mpf(n + 1 - k)
        pk, pbk = phi[k + 1], phibar[k + 1]
        phi[k] = w_top * n + w_mid * max(b, pk) + w_zero * pk
        ev = w_top * n + w_mid * max(b, pbk) + w_zero * pbk
        phibar[k] = max(a, pk) / rem + (1 - 1 / rem) * ev
    return phi, phibar


def test_backward_pass_drift_is_noise_level():
    mp.dps = 50
    n = 400
    inst, _ = make_instance(*REF_PARAMS, n)
    tables = compute_thresholds(inst)
    phi_hp, phibar_hp = _mp_tables(n)
    worst = 0.0
    for k in range(1, n + 1):
        worst = max(
            worst,
            abs(tables.phi[k] - float(phi_hp[k])) / float(phi_hp[k]),
            abs(tables.phibar[k] - float(phibar_hp[k])) / float(phibar_hp[k]),
        )
    assert worst < 1e-13

    opt = optimal_value(inst, tables)
    a, b, p = _mp_params()
    w_top = mpf(1) / (n * n)
    w_mid = p / n
    w_zero = 1 - w_mid - w_top
    ev1 = w_top * n + w_mid * max(b, phibar_hp[1]) + w_zero * phibar_hp[1]
    opt_hp = max(a, phi_hp[1]) / (n + 1) + (mpf(n) / (n + 1)) * ev1
    assert opt == pytest.approx(float(opt_hp), rel=1e-14)


@pytest.mark.parametrize("point", [REF_PARAMS, *PERTURBED])
def test_tables_match_30_digit_recursion_at_n_2000(point):
    # Each closed-form segment rounds a handful of times per entry; a float
    # loop accumulates 3e-14 to 1e-13 of drift by this size.
    mp.dps = 30
    n = 2000
    inst, _ = make_instance(*point, n)
    tables = compute_thresholds(inst)
    phi_hp, phibar_hp = _mp_tables(n, [mpf(x) for x in point])  # exact binary values
    phi_ref = np.array([float(x) for x in phi_hp[1:]])
    phibar_ref = np.array([float(x) for x in phibar_hp])
    np.testing.assert_allclose(tables.phi[1:], phi_ref, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(tables.phibar, phibar_ref, rtol=1e-14, atol=0.0)


def test_blocked_pass_matches_40_digit_recursion():
    # At p = 700 one block over all n = 2000 steps would need the discount
    # e^862, past dp._MAX_LOG_DISCOUNT, so the pass takes two blocks, each
    # restarting from the other's last value.  A float64 step-by-step loop
    # drifts by about 9e-14 here.
    mp.dps = 40
    n = 2000
    point = (0.5, 1.001, 700.0)
    inst, _ = make_instance(*point, n)
    tables = compute_thresholds(inst)
    phi_hp, phibar_hp = _mp_tables(n, [mpf(x) for x in point])
    phi_ref = np.array([float(x) for x in phi_hp[1:]])
    phibar_ref = np.array([float(x) for x in phibar_hp])
    np.testing.assert_allclose(tables.phi[1:], phi_ref, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(tables.phibar, phibar_ref, rtol=1e-13, atol=0.0)


def test_closed_form_drift_at_large_n():
    # The table's phi on [k_n, n]; below k_n (i = 10), the geometric sum
    # that the pass evaluates there.
    mp.dps = 50
    n = 10**5
    inst, _ = make_instance(*REF_PARAMS, n)
    tables = compute_thresholds(inst)
    k_n = acceptance_times(tables, inst).k_n
    law = inst.distribution()
    w_top, w_mid, _ = law.masses
    a, b, p = _mp_params()
    eps = p / n + mpf(1) / (n * n)
    q = 1 - eps
    for i in (10, 2500, n // 2, n - 1, n):
        exact = (1 + b * p) / n * (1 - q ** (n - i + 1)) / eps
        if i >= k_n:
            got = tables.phi[i]
        else:
            got = dp_module._geometric(law.mean, w_mid + w_top, n - i + 1)
        assert got == pytest.approx(float(exact), rel=1e-12)


def test_lower_bound_tail_sums_at_large_n():
    # S(L) = sum_{j<L} (L-j) q^j / (L+1) in closed form at 40 digits (its
    # cancellation costs at most ~13 of them here) against the float path
    # at the sandwich's own eps.  Lengths just past 512 are where the same
    # closed form in float64 loses 4.6e-9.
    mp.dps = 40
    n = 10**6
    p = REF_PARAMS[2]
    eps_f = p / n + 1.0 / (n * n)
    eps = mpf(eps_f)
    q = 1 - eps
    lengths = [1, 2, 513, 600, 5000, 10**5, n - 2252]
    got = tail_sums(eps_f, max(lengths))[np.array(lengths) - 1]
    for length, value in zip(lengths, got):
        qn = q**length
        exact = (1 - qn) / eps - (1 - qn * (length * eps + 1)) / ((length + 1) * eps**2)
        assert value == pytest.approx(float(exact), rel=1e-12)


def test_prophet_exact_drift_at_large_n():
    mp.dps = 50
    a, b, p = _mp_params()
    for n in (10**3, 10**6):
        inst, _ = make_instance(*REF_PARAMS, n)
        t1 = (1 - mpf(1) / (n * n)) ** n
        t2 = (1 - p / n - mpf(1) / (n * n)) ** n
        exact = n * (1 - t1) + b * (t1 - t2) + a * t2
        assert prophet_exact(inst) == pytest.approx(float(exact), rel=1e-13)


def test_limit_fractions_against_high_precision():
    mp.dps = 50
    a, b, p = _mp_params()
    from mpmath import log

    lam = 1 + log((1 + (b - a) * p) / (1 + b * p)) / p
    mu = 1 + log(1 / (1 + b * p)) / p
    from rostop import lambda_mu_star

    prof = lambda_mu_star(*REF_PARAMS)
    assert prof.lambda_star == pytest.approx(float(lam), rel=1e-15)
    assert prof.mu_star == pytest.approx(float(mu), rel=1e-13)


def test_acceptance_times_match_high_precision_recursion():
    mp.dps = 50
    n = 400
    inst, _ = make_instance(*REF_PARAMS, n)
    times = acceptance_times(compute_thresholds(inst), inst)
    phi_hp, phibar_hp = _mp_tables(n)
    a, b, _ = _mp_params()

    def first(table, value):
        for k in range(1, n + 1):
            if value >= table[k]:
                return k
        return n + 1

    assert times.k_n == first(phi_hp, b)
    assert times.kbar_n == first(phibar_hp, b)
    assert times.j_n == first(phi_hp, a)
