"""High-precision cross-checks of the float64 numerics.

Re-runs the backward recursion and the maximum's expectation in 30- to
50-digit arithmetic and bounds the double-precision drift.  This is the
quantitative backing for treating ~1e-12 discrepancies as rounding noise
elsewhere.
"""

import math

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf

import rostop.dp as dp_module
from rostop import (
    acceptance_times,
    compute_thresholds,
    hardness_bound,
    make_instance,
    optimal_value,
    prophet_exact,
    validate,
)
from rostop.asymptotics import (
    _limits,
    _phi2,
    _q,
    _q_at_limits,
    _q_higher_terms,
    _q_prime_terms,
    _where,
)
from rostop.prophet import _limit

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


def test_q_at_limits_is_the_six_term_q_at_the_limits():
    # The identity behind m, on the library's own formula functions in
    # 50 digits; phi2 taken from expm1 alone, whose series is checked below.
    rng = np.random.default_rng(21)
    expm1_only = lambda cond, x, y: y
    with mpmath.workdps(50):
        for a, b, log_p, t in rng.uniform([0.1, 1.0, -6.0, 0.0], [0.99, 3.0, 0.5, 1.0], (200, 4)):
            a, b, p = mpf(a), mpf(b), mpf(10.0) ** log_p
            lam, mu = _limits(a, b, p, mpmath.log1p)
            nu = mu + mpf(t) * (lam - mu)
            q1 = _q_prime_terms(a, p, lam, 1 + b * p, nu, mpmath.exp)[0]
            closed = _q_at_limits(b, p, mu, nu, q1, mpmath.expm1, expm1_only)
            assert abs(_q(a, b, p, lam, mu, nu, mpmath.exp) - closed) <= mpf("1e-35")


def test_phi2_within_four_ulps():
    x = np.geomspace(1e-12, 50.0, 1500).tolist() + np.linspace(1.9, 2.1, 101).tolist()
    with mpmath.workdps(50):
        for xi in x:
            exact = float((mpmath.expm1(mpf(xi)) - xi) / mpf(xi) ** 2)
            assert abs(_phi2(xi, math.expm1, _where) - exact) <= 4 * math.ulp(exact), xi


def _mp_bound(a, b, p):
    """``M`` in 50 digits: ``nu*`` by Newton from the float bound's ``nu_hat``,
    ``q`` in its six-term form."""
    hb = hardness_bound(a, b, p)
    with mpmath.workdps(50):
        a, b, p = mpf(a), mpf(b), mpf(p)
        lam, mu = _limits(a, b, p, mpmath.log1p)
        nu = mpf(hb.nu_hat)
        for _ in range(3):
            q1, e1, slope = _q_prime_terms(a, p, lam, 1 + b * p, nu, mpmath.exp)
            nu -= q1 / _q_higher_terms(a, b, p, e1, slope)[0]
        return hb.M, _q(a, b, p, lam, mu, nu, mpmath.exp) / _limit(a, b, p, mpmath.exp)


def test_bound_is_accurate_to_its_rounding_down_to_the_smallest_p():
    # m's rounding is about one ulp of 1 divided by p (the q'(nu_hat)/p term).
    for p in np.geomspace(0.5, 9e-4, 20).tolist():
        point = (0.65, 1.0 + p / 4, p)
        assert validate(*point).passed
        M, exact = _mp_bound(*point)
        assert abs(M - exact) <= 4e-16 * (1.0 + 1.0 / p), point
