import numpy as np
import pytest

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
    q_derivatives,
    q_eval,
    validate,
)
from rostop.bound import (
    DEFAULT_RTOL,
    DEFAULT_XTOL,
    _bisect,
    _maximise_q,
    _maximise_q_lanes,
    _qprime_sup,
)

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
    f = lambda nu: q_derivatives(*REF_PARAMS, prof.lambda_star, nu)[0]
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
    assert hb.m == q_eval(*REF_PARAMS, hb.lambda_star, hb.mu_star, hb.nu_hat)
    assert hb.m == pytest.approx(1.40644, abs=1e-5)


def test_error_bounds_chain():
    hb = hardness_bound(*REF_PARAMS)
    assert hb.nu_error_bound <= hb.xtol + abs(hb.nu_hat) * hb.rtol
    assert hb.nu_error_bound < 0.5e-13
    assert 0.0 < hb.q_error_bound <= hb.nu_error_bound


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


def test_monotone_branch_via_restricted_interval():
    # The left endpoint pinned above the interior root makes q' nonpositive
    # on the whole remaining interval, selecting the closed-form endpoint
    # maximum with a zero-error certificate.
    prof = lambda_mu_star(*REF_PARAMS)
    mu_fake = 0.3
    assert q_derivatives(*REF_PARAMS, prof.lambda_star, mu_fake)[0] < 0.0
    case, nu_hat, m, iterations, nu_err = _maximise_q(
        *REF_PARAMS, prof.lambda_star, mu_fake, 1e-13, 1e-14
    )
    assert case == "monotone"
    assert nu_hat == mu_fake
    assert m == q_eval(*REF_PARAMS, prof.lambda_star, mu_fake, mu_fake)
    assert iterations == 0 and nu_err == 0.0


def test_batched_monotone_and_interior_lanes_match_scalar():
    # No feasible grid point is monotone, so the restricted interval of the
    # test above drives the batched monotone branch, beside an interior lane.
    prof = lambda_mu_star(*REF_PARAMS)
    mus = (0.3, prof.mu_star)
    lanes = (np.full(2, x) for x in (*REF_PARAMS, prof.lambda_star, prof.mu_star))
    interior, nu_hat, m, iterations, nu_err, bad = _maximise_q_lanes(
        *lanes, np.array(mus), DEFAULT_XTOL, DEFAULT_RTOL
    )
    assert bad.tolist() == [False, False]
    assert interior.tolist() == [False, True]
    for j, mu in enumerate(mus):
        case = "interior" if interior[j] else "monotone"
        assert (case, nu_hat[j], m[j], iterations[j], nu_err[j]) == _maximise_q(
            *REF_PARAMS, prof.lambda_star, mu, DEFAULT_XTOL, DEFAULT_RTOL
        )


def test_batched_iteration_budget_flags_every_interior_lane():
    # With zero tolerances the width test never passes: the bracket stalls at
    # adjacent floats, so the scalar spends its budget and so must each lane.
    with pytest.raises(MaxIterationsError):
        hardness_bound(*REF_PARAMS, xtol=0.0, rtol=0.0)
    prof = lambda_mu_star(*REF_PARAMS)
    mus = np.array([0.3, prof.mu_star, prof.mu_star])
    lanes = (np.full(3, x) for x in (*REF_PARAMS, prof.lambda_star, prof.mu_star))
    interior, *_, bad = _maximise_q_lanes(*lanes, mus, 0.0, 0.0)
    assert interior.tolist() == [False, True, True]
    assert bad.tolist() == interior.tolist()


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
    assert cert.qprime_convex
    assert cert.grid_points == 2
    assert not cert.trivially_exact


def test_certificate_monotone_trivially_exact():
    hb = hardness_bound(*REF_PARAMS)
    mono = HardnessBound(
        a=hb.a, b=hb.b, p=hb.p, lambda_star=hb.lambda_star, mu_star=hb.mu_star,
        nu_hat=hb.mu_star, m=q_eval(*REF_PARAMS, hb.lambda_star, hb.mu_star, hb.mu_star),
        M=0.5, case="monotone", nu_error_bound=0.0, q_error_bound=0.0, iterations=0,
    )
    cert = certify(mono)
    assert cert.trivially_exact
    assert cert.q_error_bound == 0.0


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
    real = rostop.bound.q_derivatives

    def negative_third(*args):
        q1, q2, q3 = real(*args)
        return q1, q2, -q3

    monkeypatch.setattr(rostop.bound, "q_derivatives", negative_third)
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
