import json
import math

import numpy as np
import pytest

import rostop.asymptotics
import rostop.bound
from rostop import (
    AcceptanceTimes,
    acceptance_times,
    compute_thresholds,
    ConsistencyError,
    InfeasibleInstanceError,
    ParameterError,
    SweepSpec,
    hardness_bound,
    k_star,
    lambda_mu_star,
    make_instance,
    optimal_value,
    q_eval,
    run_sweep,
    validate,
    verify_bound_sandwich,
)
from rostop.asymptotics import _q_derivatives

from conftest import PERTURBED, REF_PARAMS, tail_sums

NU_STAR_12_DIGITS = 0.211231196923


def _profile():
    return lambda_mu_star(*REF_PARAMS)


def _require_ordering(times):
    if not times.k_n <= times.kbar_n <= times.j_n:
        raise ValueError(
            f"need k_n <= kbar_n <= j_n, got ({times.k_n}, {times.kbar_n}, {times.j_n})"
        )


def _conditional_expectation_asymptotic(inst, times, i):
    """The paper's large-size ``E[stopped value | constant arrives at position i]``.

    Piecewise in ``i`` with breakpoints at ``k_n``, ``kbar_n`` and ``j_n``;
    all O(1/n) corrections are dropped.  Requires the eventual ordering
    ``k_n <= kbar_n <= j_n``.  Averaged over the positions it is a reference
    for the optimal value that shares no arithmetic with the backward pass.
    """
    _require_ordering(times)
    n = inst.n
    if not 1 <= i <= n + 1:
        raise IndexError(f"position {i} out of range [1, {n + 1}]")
    a, b, p = inst.a, inst.b, inst.p
    ib = 1.0 / p + b
    mu, nu = times.mu_n, times.nu_n
    if i < times.k_n:
        return mu + ib * (1.0 - math.exp(p * (mu - 1.0)))
    if i < times.kbar_n:
        x = i / n
        return x + ib * (1.0 - math.exp(p * (x - 1.0)))
    if i < times.j_n:
        return nu + ib * (1.0 - math.exp(p * (nu - 1.0)))
    e = math.exp(p * (nu - i / n))
    return nu + ib * (1.0 - e) + a * e


def _partial_sums(inst, times):
    """The paper's asymptotic values of the four position segments of the total expectation.

    Segments: positions before ``k_n``, in ``[k_n, kbar_n)``, in
    ``[kbar_n, j_n)`` and from ``j_n`` on (empty-sum convention: an empty
    segment contributes exactly 0).  Their sum telescopes algebraically to
    ``q(lambda_n, mu_n, nu_n)``, which makes them the reference for
    ``q_eval``; every call re-checks the identity to 1e-10 and a violation
    raises :class:`ConsistencyError`.
    """
    _require_ordering(times)
    a, b, p = inst.a, inst.b, inst.p
    ib = 1.0 / p + b
    lam, mu, nu = times.lambda_n, times.mu_n, times.nu_n

    s1 = mu * mu + mu * ib * (1.0 - math.exp(p * (mu - 1.0)))
    s2 = (
        nu * nu / 2.0
        - mu * mu / 2.0
        + ib * (nu - mu)
        - (math.exp(-p) / p) * ib * (math.exp(p * nu) - math.exp(p * mu))
    )
    s3 = -nu * nu + lam * nu + (lam - nu) * ib * (1.0 - math.exp(p * (nu - 1.0)))
    s4 = (
        -lam * nu
        + nu
        + ib * (1.0 - lam)
        - (1.0 / p) * (ib - a) * (math.exp(-p * (lam - nu)) - math.exp(-p * (1.0 - nu)))
    )

    total = s1 + s2 + s3 + s4
    q = q_eval(a, b, p, lam, mu, nu)
    if abs(total - q) > 1e-10:
        raise ConsistencyError(f"segment total {total!r} != q {q!r}")
    return s1, s2, s3, s4


def test_limit_values():
    prof = _profile()
    assert prof.lambda_star == pytest.approx(0.41518612252479703, rel=1e-13)
    assert prof.mu_star == pytest.approx(0.0022528733893473207, rel=1e-12)
    assert 0.0 < prof.mu_star < prof.lambda_star < 1.0


def test_limits_track_million_scale_acceptance_times(ref_dp):
    prof = _profile()
    _, _, times = ref_dp.get(10**6)
    assert abs(prof.lambda_star * 10**6 - times.j_n) < 50
    assert abs(prof.mu_star * 10**6 - times.k_n) < 5


def test_mu_star_independent_of_a():
    base = lambda_mu_star(*REF_PARAMS)
    other = lambda_mu_star(0.75, 1.24, 0.421)
    assert other.mu_star == base.mu_star
    assert other.lambda_star != base.lambda_star


def test_infeasible_parameters_rejected():
    with pytest.raises(InfeasibleInstanceError):
        lambda_mu_star(0.789, 1.24, 0.2)


def test_qprime_vanishes_at_certified_root():
    prof = _profile()
    q1, _, _ = _q_derivatives(*REF_PARAMS, prof.lambda_star, prof.mu_star, NU_STAR_12_DIGITS)
    assert abs(q1) < 1e-12


def test_qprime_signs_at_endpoints():
    prof = _profile()
    lam, mu = prof.lambda_star, prof.mu_star
    assert _q_derivatives(*REF_PARAMS, lam, mu, lam)[0] <= 0.0
    assert _q_derivatives(*REF_PARAMS, lam, mu, mu)[0] > 0.0


def test_third_derivative_positive_on_grid():
    prof = _profile()
    for nu in np.linspace(prof.mu_star, prof.lambda_star, 1000):
        assert _q_derivatives(*REF_PARAMS, prof.lambda_star, prof.mu_star, float(nu))[2] > 0.0


def test_first_derivative_matches_finite_differences():
    prof = _profile()
    h = 1e-5
    grid = np.linspace(prof.mu_star + h, prof.lambda_star - h, 101)
    a, b, p = REF_PARAMS
    for nu in grid:
        nu = float(nu)
        fd = (
            q_eval(a, b, p, prof.lambda_star, prof.mu_star, nu + h)
            - q_eval(a, b, p, prof.lambda_star, prof.mu_star, nu - h)
        ) / (2.0 * h)
        q1 = _q_derivatives(a, b, p, prof.lambda_star, prof.mu_star, nu)[0]
        assert abs(fd - q1) <= 1e-6 * max(abs(q1), abs(fd))


def test_second_derivative_matches_differences_of_first():
    prof = _profile()
    h = 1e-5
    a, b, p = REF_PARAMS
    for nu in np.linspace(prof.mu_star + h, prof.lambda_star - h, 101):
        nu = float(nu)
        fd = (
            _q_derivatives(a, b, p, prof.lambda_star, prof.mu_star, nu + h)[0]
            - _q_derivatives(a, b, p, prof.lambda_star, prof.mu_star, nu - h)[0]
        ) / (2.0 * h)
        q2 = _q_derivatives(a, b, p, prof.lambda_star, prof.mu_star, nu)[1]
        assert abs(fd - q2) <= 1e-6 * abs(q2)


def test_qprime_convexity_via_finite_differences():
    # Centered second difference of q' must not be meaningfully negative.
    prof = _profile()
    h = 1e-5
    a, b, p = REF_PARAMS
    for nu in np.linspace(prof.mu_star + h, prof.lambda_star - h, 1000):
        nu = float(nu)
        second = (
            _q_derivatives(a, b, p, prof.lambda_star, prof.mu_star, nu + h)[0]
            - 2.0 * _q_derivatives(a, b, p, prof.lambda_star, prof.mu_star, nu)[0]
            + _q_derivatives(a, b, p, prof.lambda_star, prof.mu_star, nu - h)[0]
        ) / (h * h)
        assert second >= -1e-8


def test_q_derivatives_domain_error():
    prof = _profile()
    with pytest.raises(ParameterError):
        _q_derivatives(*REF_PARAMS, prof.lambda_star, prof.mu_star, prof.mu_star - 1e-6)
    with pytest.raises(ParameterError):
        _q_derivatives(*REF_PARAMS, prof.lambda_star, prof.mu_star, prof.lambda_star + 1e-6)


def test_q_derivatives_rejects_wrong_lambda_star(monkeypatch):
    # lambda* and mu* are checked once per point, by the certificate of
    # either path; m's closed form moves by 1e-10 if mu* is 1e-9 off.
    limits = rostop.asymptotics._limits
    for shift in ((1e-9, 0.0), (0.0, 1e-9)):

        def shifted(a, b, p, log1p):
            lam, mu = limits(a, b, p, log1p)
            return lam + shift[0], mu + shift[1]

        monkeypatch.setattr(rostop.asymptotics, "_limits", shifted)
        monkeypatch.setattr(rostop.bound, "_limits", shifted)
        with pytest.raises(ConsistencyError, match="are lambda_star and mu_star correct"):
            hardness_bound(*REF_PARAMS)
        with pytest.raises(ConsistencyError, match=r"at \(a, b, p\) = \(0\.789, 1\.24, 0\.421\)"):
            run_sweep(SweepSpec(*((x, x, 0.01) for x in REF_PARAMS)))


def test_conditional_expectation_cases(ref_dp):
    inst, _, times = ref_dp.get(10**4)
    a, b, p = REF_PARAMS
    ib = 1.0 / p + b
    val_before_k = _conditional_expectation_asymptotic(inst, times, 1)
    assert val_before_k == pytest.approx(
        times.mu_n + ib * (1.0 - math.exp(p * (times.mu_n - 1.0)))
    )
    # constant on the whole first segment
    assert _conditional_expectation_asymptotic(inst, times, times.k_n - 1) == val_before_k
    # middle segment varies with i, continuous at k_n
    assert _conditional_expectation_asymptotic(inst, times, times.k_n) == val_before_k
    v1 = _conditional_expectation_asymptotic(inst, times, times.k_n + 10)
    assert v1 != val_before_k
    # third segment depends on kbar_n only
    v3a = _conditional_expectation_asymptotic(inst, times, times.kbar_n)
    v3b = _conditional_expectation_asymptotic(inst, times, times.j_n - 1)
    assert v3a == v3b
    assert v3a == pytest.approx(times.nu_n + ib * (1.0 - math.exp(p * (times.nu_n - 1.0))))
    # last segment decays toward the constant's value via the explicit form
    i = times.j_n + 7
    e = math.exp(p * (times.nu_n - i / inst.n))
    assert _conditional_expectation_asymptotic(inst, times, i) == pytest.approx(
        times.nu_n + ib * (1.0 - e) + a * e
    )


def test_conditional_expectation_position_range(ref_dp):
    inst, _, times = ref_dp.get(10**4)
    with pytest.raises(IndexError):
        _conditional_expectation_asymptotic(inst, times, 0)
    with pytest.raises(IndexError):
        _conditional_expectation_asymptotic(inst, times, inst.n + 2)


def test_case_split_requires_ordering(ref_dp):
    inst, _, _ = ref_dp.get(10**4)
    bad = AcceptanceTimes(
        n=inst.n, j_n=10, k_n=100, kbar_n=50, lambda_n=10 / inst.n,
        mu_n=100 / inst.n, nu_n=50 / inst.n,
    )
    with pytest.raises(ValueError, match="need k_n <= kbar_n <= j_n"):
        _conditional_expectation_asymptotic(inst, bad, 5)
    with pytest.raises(ValueError, match="need k_n <= kbar_n <= j_n"):
        _partial_sums(inst, bad)


_TIMES_CONSUMERS = {"verify_bound_sandwich": verify_bound_sandwich}


@pytest.mark.parametrize("consumer", sorted(_TIMES_CONSUMERS))
def test_times_for_another_size_rejected(consumer):
    # n = 20 acceptance times read against the n = 100 instance would move
    # every breakpoint; the sandwich reported a spurious kstar_below_j failure.
    inst, _ = make_instance(*REF_PARAMS, 100)
    tables = compute_thresholds(inst)
    small, _ = make_instance(*REF_PARAMS, 20)
    times = acceptance_times(compute_thresholds(small), small)
    with pytest.raises(ValueError, match="acceptance times do not match the instance"):
        _TIMES_CONSUMERS[consumer](inst, tables, times)


@pytest.mark.parametrize("n", [10**4, 10**5])
def test_law_of_total_expectation(ref_dp, n):
    inst, tables, times = ref_dp.get(n)
    total = sum(
        _conditional_expectation_asymptotic(inst, times, i) for i in range(1, n + 2)
    ) / (n + 1)
    assert total == pytest.approx(optimal_value(inst, tables), abs=1e-3)


def test_q_eval_collapses_when_all_arguments_coincide():
    # nu = mu = lambda empties the middle segments: the exponential factors
    # in nu - lambda collapse to matched constant terms.
    a, b, p = REF_PARAMS
    x = 0.3
    ib = 1.0 / p + b
    collapsed = (
        x
        + ib
        + (1.0 / p - x) * ib * math.exp(p * (x - 1.0))
        - (a / p) * math.exp(p * (x - 1.0))
        - (1.0 / p) * (ib - a)
    )
    assert q_eval(a, b, p, x, x, x) == pytest.approx(collapsed, rel=1e-14)


def test_partial_sums_total_checked_internally(ref_dp):
    inst, _, times = ref_dp.get(10**4)
    s1, s2, s3, s4 = _partial_sums(inst, times)
    q = q_eval(*REF_PARAMS, times.lambda_n, times.mu_n, times.nu_n)
    assert s1 + s2 + s3 + s4 == pytest.approx(q, abs=1e-10)


def test_partial_sums_empty_segments():
    inst, _ = make_instance(*REF_PARAMS, 1000)
    k = 37
    times = AcceptanceTimes(
        n=1000, j_n=400, k_n=k, kbar_n=k, lambda_n=0.4, mu_n=k / 1000, nu_n=k / 1000
    )
    assert _partial_sums(inst, times)[1] == 0.0
    times = AcceptanceTimes(
        n=1000, j_n=400, k_n=k, kbar_n=400, lambda_n=0.4, mu_n=k / 1000, nu_n=0.4
    )
    assert _partial_sums(inst, times)[2] == 0.0


def test_q_eval_at_finite_size_times_tracks_optimal_value(ref_dp):
    inst, tables, times = ref_dp.get(10**6)
    q = q_eval(*REF_PARAMS, times.lambda_n, times.mu_n, times.nu_n)
    assert abs(q - optimal_value(inst, tables)) <= 5e-5


def test_k_star_value_and_ordering(ref_dp):
    assert k_star(*REF_PARAMS, 10**6) == 241935
    _, _, times = ref_dp.get(10**6)
    assert times.kbar_n <= 241935 < times.j_n


def test_k_star_requires_condition_ii():
    with pytest.raises(ParameterError):
        k_star(0.1, 1.9, 0.2, 1000)


def test_tail_sums_match_naive():
    # Short tails, tails around 512 and the longest tail n - 1 against a
    # literal double loop.
    n = 2000
    a, b, p = REF_PARAMS
    eps = p / n + 1.0 / (n * n)
    q = 1.0 - eps
    lengths = np.array([1, 2, 3, 50, 511, 512, 513, 700, 1999])
    got = tail_sums(eps, 1999)[lengths - 1]
    for length, value in zip(lengths, got):
        naive = sum(
            (length - j) / (length + 1.0) * q**j for j in range(int(length))
        )
        assert value == pytest.approx(naive, rel=1e-11)


def test_tail_sums_without_a_zero_atom():
    # eps = 1: (1 - eps)^j is 1 at j = 0 and 0 after, so S(L) = L/(L+1)
    lengths = np.arange(1.0, 9.0)
    assert np.array_equal(tail_sums(1.0, 8), lengths / (lengths + 1.0))


def test_sandwich_passes_at_n_1e4(ref_dp):
    inst, tables, times = ref_dp.get(10**4)
    report = verify_bound_sandwich(inst, tables, times)
    assert report.passed
    assert {c.check for c in report.checks} == {
        "lower_bound", "upper_bound", "ordering", "kstar_below_j",
    }
    assert report.check("upper_bound").worst_margin > 0.0


def test_sandwich_lower_margin_at_rounding_floor_at_n_1e6(ref_dp):
    # The tail sums are exact to a few ulps, so the worst lower-bound margin
    # is the recursion's own drift, far inside SIGN_TOLERANCE.
    inst, tables, times = ref_dp.get(10**6)
    report = verify_bound_sandwich(inst, tables, times)
    assert report.passed
    assert report.check("lower_bound").worst_margin >= -1e-13


@pytest.mark.parametrize("point", PERTURBED)
def test_sandwich_lower_margin_at_rounding_floor_perturbed_n_1e6(point):
    inst, _ = make_instance(*point, 10**6)
    tables = compute_thresholds(inst)
    report = verify_bound_sandwich(inst, tables, acceptance_times(tables, inst))
    assert report.passed
    assert report.check("lower_bound").worst_margin >= -1e-13


def test_sandwich_upper_bound_base_case(ref_dp):
    inst, tables, _ = ref_dp.get(10**4)
    a, b, p = REF_PARAMS
    n = inst.n
    base = a + (1.0 + (b - a) * p) / (2.0 * n)
    assert base >= tables.phibar[n - 1]
    assert base - tables.phibar[n - 1] == pytest.approx(a / (2.0 * n * n), rel=1e-3)


def test_sandwich_report_json(ref_dp):
    inst, tables, times = ref_dp.get(10**4)
    report = verify_bound_sandwich(inst, tables, times)
    text = report.to_json()
    rows = json.loads(text)
    assert [row["check"] for row in rows] == [
        "lower_bound", "upper_bound", "ordering", "kstar_below_j"
    ]
    for row in rows:
        assert list(row) == ["check", "k_lo", "k_hi", "worst_margin", "pass"]
    assert text == json.dumps(
        [
            {"check": c.check, "k_lo": c.k_lo, "k_hi": c.k_hi,
             "worst_margin": c.worst_margin, "pass": c.passed}
            for c in report.checks
        ]
    )
    with pytest.raises(KeyError):
        report.check("nope")


def test_sandwich_empty_index_ranges_pass_with_infinite_margin():
    # Hand-built times past the table: both bounds examine no index.
    n = 50
    inst, _ = make_instance(*REF_PARAMS, n)
    tables = compute_thresholds(inst)
    times = AcceptanceTimes(n, n + 1, n + 1, n + 1, (n + 1) / n, (n + 1) / n, (n + 1) / n)
    report = verify_bound_sandwich(inst, tables, times)
    for name, k_lo in (("lower_bound", n), ("upper_bound", n + 1)):
        row = report.check(name)
        assert (row.k_lo, row.k_hi) == (k_lo, n - 1)
        assert row.worst_margin == math.inf and row.passed


def test_sandwich_ordering_fails_at_a_feasible_point():
    # kbar_n/n tends to nu* = 0.159265, above k*/n -> 0.154975: the eight
    # feasibility checks do not imply kbar_n <= k*.  Reported, not raised.
    point, n = (0.75, 1.28, 0.48), 10**4
    assert validate(*point, n).passed
    inst, _ = make_instance(*point, n)
    tables = compute_thresholds(inst)
    report = verify_bound_sandwich(inst, tables, acceptance_times(tables, inst))
    row = report.check("ordering")
    assert (row.k_lo, row.k_hi, row.worst_margin, row.passed) == (23, 1550, -43.0, False)
    assert not report.passed


def test_sandwich_reports_ordering_where_condition_ii_fails():
    # A real law with (2-p)(b-a) = 2.21 >= 1, where k_star raises: the
    # sandwich evaluates k*'s formula ungated (k* = -761) and reports all
    # four checks, ordering failing with its margin.
    point, n = (0.5, 1.9, 0.421), 1000
    assert [c.name for c in validate(*point, n).checks if not c.passed] == ["log", "II", "V"]
    inst, _ = make_instance(*point, n)
    tables = compute_thresholds(inst)
    times = acceptance_times(tables, inst)
    report = verify_bound_sandwich(inst, tables, times)
    assert [c.check for c in report.checks] == [
        "lower_bound", "upper_bound", "ordering", "kstar_below_j"
    ]
    assert report.check("lower_bound").passed and report.check("upper_bound").passed
    row = report.check("ordering")
    assert (row.k_lo, row.k_hi, row.worst_margin, row.passed) == (times.k_n, -761, -762.0, False)
    assert not report.passed
