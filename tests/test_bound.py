import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rostop.bound
from rostop import (
    BracketError,
    CertificationError,
    HardnessBound,
    MaxIterationsError,
    ParameterError,
    certify,
    compute_thresholds,
    gambler_prophet_ratio,
    hardness_bound,
    lambda_mu_star,
    make_instance,
    q_eval,
    run_sweep,
    validate,
)
from rostop.asymptotics import _q_derivatives
from rostop.bound import (
    DEFAULT_RTOL,
    DEFAULT_XTOL,
    _bisect,
    _maximise_q,
    _maximise_q_lanes,
    _qprime_sup,
)
from rostop.sweep import SweepSpec, _grid

from conftest import PERTURBED, REF_PARAMS


def test_bisect_linear_root():
    root, _, _ = _bisect(lambda x: 0.5 - x, 0.0, 1.0, 1e-13, 1e-14, 200)
    assert abs(root - 0.5) <= 1e-13 + 0.5 * 1e-14


def test_bisect_requires_sign_change():
    with pytest.raises(BracketError):
        _bisect(lambda x: 1.0, 0.0, 1.0, 1e-13, 1e-14, 200)
    with pytest.raises(BracketError):
        _bisect(lambda x: -1.0 - x, 0.0, 1.0, 1e-13, 1e-14, 200)


def test_bisect_iteration_budget():
    with pytest.raises(MaxIterationsError):
        _bisect(lambda x: 0.5 - x, 0.0, 1.0, 1e-13, 1e-14, max_iter=3)


def test_bisect_halving_geometry():
    root, iterations, half_width = _bisect(lambda x: 0.5 - x, 0.0, 1.0, 1e-10, 0.0, 200)
    assert half_width == pytest.approx(1.0 / 2 ** (iterations + 1), rel=1e-9)
    assert half_width * 2.0 <= 1e-10 + abs(root) * 0.0


def test_bisection_reproduces_certified_root():
    hb = hardness_bound(*REF_PARAMS)
    assert abs(hb.nu_hat - 0.211231196923) < 1e-12
    assert 35 <= hb.iterations <= 60


def test_bisection_preserves_bracket():
    # Shadow run with the same derivative: the sign invariant must hold at
    # every halving and the midpoint sequence must land on the same root.
    prof = lambda_mu_star(*REF_PARAMS)
    f = lambda nu: _q_derivatives(*REF_PARAMS, prof.lambda_star, prof.mu_star, nu)[0]
    lo, hi = prof.mu_star, prof.lambda_star
    xtol, rtol = 1e-13, 1e-14
    while True:
        assert f(lo) > 0.0 >= f(hi)
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol + abs(mid) * rtol:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    assert mid == hardness_bound(*REF_PARAMS).nu_hat


def test_hardness_bound_reference_values():
    hb = hardness_bound(*REF_PARAMS)
    assert hb.case == "interior"
    assert abs(hb.M - 0.72348603329) < 1e-11
    assert abs(hb.nu_hat - 0.211231196923) < 1e-12
    assert hb.M < 0.7235
    assert 0.0 < hb.M < 1.0
    # m is the closed form without q_eval's 1/p^2 terms, whose cancellation
    # leaves q_eval about 2e-16/p^2 off; the 50-digit max of q is mpmath's.
    p = REF_PARAMS[2]
    assert abs(hb.m - q_eval(*REF_PARAMS, hb.lambda_star, hb.mu_star, hb.nu_hat)) <= 4e-16 / p**2
    assert abs(hb.m - 1.4064337436640293304) <= 4e-16


def test_error_bounds_chain():
    hb = hardness_bound(*REF_PARAMS)
    assert hb.nu_error_bound <= hb.xtol + abs(hb.nu_hat) * hb.rtol
    assert hb.nu_error_bound < 0.5e-13
    assert 0.0 < hb.q_error_bound <= hb.nu_error_bound


def test_bound_at_small_p_is_accurate():
    # The six-term q's 1/p^2 cancellation put M 7.6e-11 off here; mpmath's
    # 50-digit value is 0.7374600737349011806.
    assert abs(hardness_bound(0.6, 1.00025, 1e-3).M - 0.73746007373490118) <= 1e-13


@pytest.mark.parametrize("p", [8.87e-4, 8.9e-4])
def test_small_p_refused_where_m_rounds_into_the_12th_digit(p):
    # Refused where the rounding of q'(nu_hat)/p, 4 * 2^-52 / p, exceeds 1e-12.
    point = (0.6, 1.0 + p / 4, p)
    assert validate(*point).passed
    spec = SweepSpec(*((x, x, 0.01) for x in point))
    if p < 8.88e-4:
        with pytest.raises(CertificationError, match="is too small"):
            hardness_bound(*point)
        with pytest.raises(CertificationError, match=r"at \(a, b, p\) = .* is too small"):
            run_sweep(spec)
    else:
        hb = hardness_bound(*point)
        assert certify(hb).q_error_bound == hb.q_error_bound
        (record,) = run_sweep(spec)
        assert record.M == hb.M


def test_hardness_bound_deterministic():
    assert hardness_bound(*REF_PARAMS) == hardness_bound(*REF_PARAMS)


def test_bound_consistent_with_dp_ratio(ref_dp):
    inst, tables, _ = ref_dp.get(10**6)
    hb = hardness_bound(*REF_PARAMS)
    assert abs(gambler_prophet_ratio(inst, tables) - hb.M) <= 1e-4


@pytest.mark.parametrize("point", [REF_PARAMS, *PERTURBED])
def test_richardson_step_on_finite_size_ratio_reaches_bound(point):
    # r_n = M + c/n + O(1/n^2), so 2 r_{2n} - r_n estimates M to O(1/n^2)
    # from the backward pass alone, with no asymptotics or bisection.
    def ratio(n):
        inst, _ = make_instance(*point, n)
        return gambler_prophet_ratio(inst, compute_thresholds(inst))

    extrapolated = 2.0 * ratio(10**6) - ratio(5 * 10**5)
    assert abs(extrapolated - hardness_bound(*point).M) <= 1e-12


def test_bound_below_one_across_feasible_points():
    interior = 0
    for a in (0.65, 0.75, 0.9):
        for b in (1.1, 1.3):
            for p in (0.45, 0.55, 0.65):
                if not validate(a, b, p).passed:
                    continue
                hb = hardness_bound(a, b, p)
                assert 0.0 < hb.M < 1.0
                assert hb.case == "interior"
                interior += 1
    assert interior >= 5


# The README's 11^3 sweep grid, 778 of whose points are feasible.
_README_GRID = SweepSpec(a=(0.75, 0.85, 0.01), b=(1.2, 1.3, 0.01), p=(0.4, 0.5, 0.01))


def _assert_qprime_at_mu_star_positive(a, b, p):
    # q'(mu*) = v((1+x) log(1+x) - x)/(pu) with u = 1+bp, v = 1+(b-a)p and
    # x = ap/v, which is positive for a, p > 0 and b > a: the maximum of q is
    # never at the left end.
    prof = lambda_mu_star(a, b, p)
    q1 = _q_derivatives(a, b, p, prof.lambda_star, prof.mu_star, prof.mu_star)[0]
    u, v = 1.0 + b * p, 1.0 + (b - a) * p
    x = a * p / v
    closed = v * ((1.0 + x) * math.log1p(x) - x) / (p * u)
    assert q1 > 0.0 and closed > 0.0, (a, b, p)
    assert abs(q1 - closed) <= 1e-12, (a, b, p)


def test_qprime_at_mu_star_positive_on_the_readme_grid():
    points = [pt for pt in _grid(_README_GRID) if validate(*pt).passed]
    assert len(points) == 778
    for point in points:
        _assert_qprime_at_mu_star_positive(*point)


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(0.05, 4.0),
    b=st.floats(1.0, 1.45, exclude_min=True),
    s=st.floats(0.0, 1.0, exclude_max=True),
)
def test_qprime_at_mu_star_positive_at_feasible_points(p, b, s):
    # a is drawn above the bound that condition V sets, which keeps most
    # draws feasible: V reads a p > 1 + y - (1+y) log(1+y) / y with y = p b.
    y = p * b
    a_min = (1.0 + y - (1.0 + y) * math.log1p(y) / y) / p
    a = a_min + s * (1.0 - a_min)
    assume(validate(a, b, p).passed)
    _assert_qprime_at_mu_star_positive(a, b, p)


def test_batched_lanes_match_scalar():
    points = [REF_PARAMS, *PERTURBED]
    profs = [lambda_mu_star(*pt) for pt in points]
    lanes = np.array([(*pt, prof.lambda_star, prof.mu_star) for pt, prof in zip(points, profs)])
    nu_hat, m, iterations, nu_err, bad = _maximise_q_lanes(
        *lanes.T, DEFAULT_XTOL, DEFAULT_RTOL
    )
    assert not bad.any()
    for j, (pt, prof) in enumerate(zip(points, profs)):
        assert (nu_hat[j], m[j], iterations[j], nu_err[j]) == _maximise_q(
            *pt, prof.lambda_star, prof.mu_star, DEFAULT_XTOL, DEFAULT_RTOL
        )


def test_numpy_exp_is_within_a_quarter_of_the_halvings_allowance_of_libm():
    # The lanes' halvings take the sign of q' from numpy's exp, guarded for
    # a relative gap of up to _ETA to libm's exp; a numpy build whose exp
    # strays further would void the guard, so it fails here.
    # The lanes' exp arguments lie in [-log(1 + bp), 0]: [-2, 0] on the
    # README grid, and the tail covers larger p.  [-0.6, 0] is sampled
    # densely: there numpy's exp and libm's differ by 1 ulp most often.
    rng = np.random.default_rng(41)
    x = np.concatenate(
        [
            rng.uniform(-0.6, 0.0, 10**5),
            rng.uniform(-2.0, 0.0, 10**5),
            -np.geomspace(2.0, 700.0, 10**4),
        ]
    )
    libm = np.fromiter(map(math.exp, x.tolist()), float, x.size)
    assert np.all(np.abs(np.exp(x) - libm) <= rostop.bound._ETA / 4 * libm)


def test_batched_iteration_budget_flags_every_interior_lane():
    # With zero tolerances the width test never passes: the bracket stalls at
    # adjacent floats, so the scalar spends its budget and so must each lane.
    with pytest.raises(MaxIterationsError):
        hardness_bound(*REF_PARAMS, xtol=0.0, rtol=0.0)
    prof = lambda_mu_star(*REF_PARAMS)
    lanes = (np.full(3, x) for x in (*REF_PARAMS, prof.lambda_star, prof.mu_star))
    *_, bad = _maximise_q_lanes(*lanes, 0.0, 0.0)
    assert bad.tolist() == [True, True, True]


def test_infeasible_parameters_rejected():
    from rostop import InfeasibleInstanceError

    with pytest.raises(InfeasibleInstanceError):
        hardness_bound(0.789, 1.24, 0.2)


@pytest.mark.parametrize(
    "tols", [{"xtol": float("nan")}, {"xtol": -1.0}, {"rtol": float("nan")}, {"rtol": -1e-14}]
)
def test_hardness_bound_rejects_bad_tolerances(tols):
    with pytest.raises(ParameterError, match="must be nonnegative"):
        hardness_bound(*REF_PARAMS, **tols)


def test_certificate_interior():
    hb = hardness_bound(*REF_PARAMS)
    cert = certify(hb)
    assert cert.qprime_sup < 1.0
    assert cert.q_error_bound <= cert.nu_error_bound == hb.nu_error_bound
    assert cert.grid_points == 2


def test_certificate_rejects_inflated_error_claim():
    hb = hardness_bound(*REF_PARAMS)
    bad = HardnessBound(
        a=hb.a, b=hb.b, p=hb.p, lambda_star=hb.lambda_star, mu_star=hb.mu_star,
        nu_hat=hb.nu_hat, m=hb.m, M=hb.M, case="interior",
        nu_error_bound=2.5, q_error_bound=hb.q_error_bound, iterations=hb.iterations,
    )
    with pytest.raises(CertificationError):
        certify(bad)  # claimed bound exceeds the bisection guarantee
    worse = HardnessBound(
        a=hb.a, b=hb.b, p=hb.p, lambda_star=hb.lambda_star, mu_star=hb.mu_star,
        nu_hat=hb.nu_hat, m=hb.m, M=hb.M, case="interior",
        nu_error_bound=2.5, q_error_bound=hb.q_error_bound, iterations=hb.iterations,
        xtol=10.0,
    )
    with pytest.raises(CertificationError):
        certify(worse)  # so wide an interval leaves [mu*, lambda*]


def test_qprime_sup_dominates_sampled_qprime():
    axis = lambda lo, step: [lo + i * step for i in range(4)]
    points = [REF_PARAMS] + [
        (a, b, p)
        for a in axis(0.75, 0.03)
        for b in axis(1.2, 0.03)
        for p in axis(0.4, 0.03)
        if validate(a, b, p).passed
    ]
    assert len(points) > 20
    for a, b, p in points:
        hb = hardness_bound(a, b, p)
        assert hb.case == "interior"
        lo, hi = hb.nu_hat - hb.nu_error_bound, hb.nu_hat + hb.nu_error_bound
        sup = _qprime_sup(a, b, p, hb.lambda_star, hb.mu_star, lo, hi)
        # independent sample of q' on the bracket, through its simplified form
        nu = np.linspace(lo, hi, 10_001)
        q1 = 1.0 - nu + ((1.0 + b * p) * (nu - hb.lambda_star) - a) * np.exp(p * (nu - 1.0))
        assert float(np.max(np.abs(q1))) <= sup < 1.0
        assert certify(hb).qprime_sup == sup
        assert hb.q_error_bound == sup * hb.nu_error_bound <= hb.nu_error_bound


def test_certificate_rejects_nonconvex_qprime(monkeypatch):
    hb = hardness_bound(*REF_PARAMS)
    real = rostop.bound._q_derivatives

    def negative_third(*args):
        q1, q2, q3 = real(*args)
        return q1, q2, -q3

    monkeypatch.setattr(rostop.bound, "_q_derivatives", negative_third)
    with pytest.raises(CertificationError):
        certify(hb)
    with pytest.raises(CertificationError):
        hardness_bound(*REF_PARAMS)


def test_bound_json_fields():
    import json

    names = [
        "a", "b", "p", "lambda_star", "mu_star", "nu_hat", "m", "M",
        "case", "nu_error_bound", "q_error_bound", "iterations",
    ]
    for point in (REF_PARAMS, *PERTURBED):
        hb = hardness_bound(*point)
        text = hb.to_json()
        assert list(json.loads(text)) == names
        assert text == json.dumps({name: getattr(hb, name) for name in names})


def test_runtime_under_one_second():
    import time

    start = time.perf_counter()
    hardness_bound(*REF_PARAMS)
    assert time.perf_counter() - start < 1.0
