import hashlib
import io

import numpy as np
import pytest

import rostop.bound
import rostop.dp as dp_module
from rostop import (
    CertificationError,
    ConsistencyError,
    ParameterError,
    SweepRecord,
    SweepSizeError,
    SweepSpec,
    dp_cross_check,
    hardness_bound,
    refine,
    run_sweep,
    validate,
    write_sweep_csv,
)
from rostop.bound import _hardness_bounds
from rostop.sweep import _axis_values, _grid

from conftest import REF_PARAMS

# Small grid whose first corner is exactly the reference point.
BRACKET = SweepSpec(
    a=(0.789, 0.809, 0.01), b=(1.24, 1.26, 0.01), p=(0.421, 0.441, 0.01)
)
# The README's 11^3 grid, 778 of whose points are feasible.
README_GRID = SweepSpec(a=(0.75, 0.85, 0.01), b=(1.2, 1.3, 0.01), p=(0.4, 0.5, 0.01))


def test_axis_values_counts_and_endpoints():
    assert _axis_values((0.0, 1.0, 0.25)) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert _axis_values((0.5, 0.5, 0.1)) == [0.5]
    # endpoint included despite float stepping
    vals = _axis_values((0.1, 0.5, 0.1))
    assert len(vals) == 5 and vals[-1] == pytest.approx(0.5)


def test_grid_iteration_order():
    spec = SweepSpec(a=(0.0, 0.1, 0.1), b=(1.0, 1.1, 0.1), p=(0.3, 0.4, 0.1))
    pts = _grid(spec)
    assert pts[0] == (0.0, 1.0, 0.3)
    assert pts[1][2] > pts[0][2]          # p varies fastest
    assert pts[2][1] > pts[0][1]          # then b
    assert pts[4][0] > pts[0][0]          # a varies slowest


def test_grid_size_guard():
    with pytest.raises(SweepSizeError):
        SweepSpec(a=(0.0, 1.0, 1e-8), b=(1.0, 1.5, 1e-4), p=(0.1, 0.9, 1e-4))


@pytest.mark.parametrize("a", [(-1e308, 1e308, 1.0), (0.7, 0.8, 5e-324)])
def test_grid_size_guard_when_point_count_overflows(a):
    # (hi - lo) / step is infinite: the axis has more points than any budget
    with pytest.raises(SweepSizeError, match="over 10000000 points"):
        SweepSpec(a=a, b=(1.2, 1.3, 0.01), p=(0.4, 0.5, 0.01))


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(a=(0.9, 0.1, 0.1), b=(1.0, 1.1, 0.1), p=(0.1, 0.2, 0.1))
    with pytest.raises(ValueError):
        SweepSpec(a=(0.1, 0.9, 0.0), b=(1.0, 1.1, 0.1), p=(0.1, 0.2, 0.1))
    with pytest.raises(ValueError):
        SweepSpec(a=(0.1, 0.9, 0.1), b=(1.0, 1.1, 0.1), p=(0.1, 0.2, 0.1), shrink=1.0)
    with pytest.raises(ValueError, match="refine_rounds must be >= 0"):
        SweepSpec(a=(0.1, 0.9, 0.1), b=(1.0, 1.1, 0.1), p=(0.1, 0.2, 0.1), refine_rounds=-1)


@pytest.mark.parametrize(
    "changes",
    [
        {"a": (0.7, float("inf"), 0.01)},
        {"a": (-float("inf"), 0.8, 0.01)},
        {"b": (1.0, 1.1, float("inf"))},
        {"shrink": float("inf")},
    ],
)
def test_spec_rejects_non_finite_values(changes):
    fields = {"a": (0.1, 0.9, 0.1), "b": (1.0, 1.1, 0.1), "p": (0.1, 0.2, 0.1), **changes}
    with pytest.raises(ValueError, match="finite"):
        SweepSpec(**fields)


def test_spec_rejects_cross_check_size_over_cap(monkeypatch):
    monkeypatch.setattr(dp_module, "MAX_TABLE_N", 10)
    fields = {"a": (0.1, 0.9, 0.1), "b": (1.0, 1.1, 0.1), "p": (0.1, 0.2, 0.1)}
    assert SweepSpec(**fields, n=10).n == 10
    with pytest.raises(ParameterError, match="MAX_TABLE_N"):
        SweepSpec(**fields, n=11)


@pytest.mark.parametrize("n", [0, -5, 2.0, True])
def test_spec_rejects_cross_check_size_that_is_not_a_positive_integer(n):
    fields = {"a": (0.1, 0.9, 0.1), "b": (1.0, 1.1, 0.1), "p": (0.1, 0.2, 0.1)}
    with pytest.raises(ParameterError, match="n must be"):
        SweepSpec(**fields, n=n)


def test_sweep_contains_reference_point_with_reference_bound():
    records = run_sweep(BRACKET)
    assert len(records) == 27
    rec = next(r for r in records if (r.a, r.b, r.p) == REF_PARAMS)
    assert rec.feasible
    assert rec.case == "interior"
    assert abs(rec.M - 0.72348603329) < 1e-11


def test_ranking_ascending_feasible_first():
    records = run_sweep(BRACKET)
    feasible = [r for r in records if r.feasible]
    infeasible = records[len(feasible):]
    assert all(not r.feasible for r in infeasible)
    ms = [r.M for r in feasible]
    assert ms == sorted(ms)
    # records carry M exactly when feasible
    assert all((r.M is None) == (not r.feasible) for r in records)


def test_all_infeasible_grid():
    spec = SweepSpec(a=(0.789, 0.789, 0.1), b=(1.24, 1.24, 0.1), p=(0.05, 0.15, 0.05))
    records = run_sweep(spec)
    assert len(records) == 3
    assert not any(r.feasible for r in records)
    assert all("log" in r.failed_conditions for r in records)
    assert all(r.M is None for r in records)


def test_feasible_records_revalidate():
    records = [r for r in run_sweep(BRACKET) if r.feasible]
    step = max(1, len(records) // 100)
    for rec in records[::step]:
        assert validate(rec.a, rec.b, rec.p).passed


# Uniform draws from a box much wider than the grids, which cover only a
# small corner of the feasible region.
RANDOM_BOX = np.random.default_rng(16).uniform(
    [0.3, 1.0, 0.05], [1.0, 3.0, 2.0], size=(20_000, 3)
).tolist()


@pytest.mark.parametrize(
    "spec, feasible",
    [(README_GRID, 778), (BRACKET, 15), pytest.param(RANDOM_BOX, 526, id="random-box-526")],
)
def test_batched_bounds_equal_scalar(spec, feasible):
    grid = _grid(spec) if isinstance(spec, SweepSpec) else spec
    points = [pt for pt in grid if validate(*pt).passed]
    assert len(points) == feasible
    batched = _hardness_bounds(*np.array(points).T)
    scalar = [hardness_bound(*pt) for pt in points]
    assert {"M", "case", "nu_hat", "iterations", "nu_error_bound"} <= set(batched)
    for field, column in batched.items():
        assert column.tolist() == [getattr(hb, field) for hb in scalar], field


@pytest.mark.parametrize("chunk", [1, 7])
def test_chunked_sweep_equals_unchunked(monkeypatch, chunk):
    # Chunk size 1 leaves some batched calls with no feasible point at all.
    whole = run_sweep(BRACKET)
    monkeypatch.setattr("rostop.sweep._CHUNK", chunk)
    assert run_sweep(BRACKET) == whole


def _negate_third(derivatives):
    def negated(*args):
        q1, q2, q3, *bad = derivatives(*args)
        return (q1, q2, -q3, *bad)

    return negated


def test_batched_checks_raise_for_the_first_failing_point(monkeypatch):
    # The scalar and the lanes are patched alike, so the sweep raises the
    # scalar's error for the first point in grid order.
    monkeypatch.setattr(rostop.bound, "q_derivatives", _negate_third(rostop.bound.q_derivatives))
    negative_third = _negate_third(rostop.bound._q_derivatives_lanes)
    monkeypatch.setattr(rostop.bound, "_q_derivatives_lanes", negative_third)
    first = r"at \(a, b, p\) = \(0\.789, 1\.24, 0\.421\): q''' is not positive"
    with pytest.raises(CertificationError, match=first):
        run_sweep(BRACKET)

    def later_points_fail_sooner(a, b, p, lam, mu_star, nu):
        # A NaN q' fails the bracket check, a stage before the certificate.
        q1, q2, q3, bad = negative_third(a, b, p, lam, mu_star, nu)
        return np.where(a > 0.79, np.nan, q1), q2, q3, bad

    monkeypatch.setattr(rostop.bound, "_q_derivatives_lanes", later_points_fail_sooner)
    with pytest.raises(CertificationError, match=first):
        run_sweep(BRACKET)


def test_batched_check_the_scalar_passes_raises_consistency_error(monkeypatch):
    # Only the lanes see a negative q''': the scalar re-run of the first
    # flagged point passes, and the sweep reports the disagreement.
    negative_third = _negate_third(rostop.bound._q_derivatives_lanes)
    monkeypatch.setattr(rostop.bound, "_q_derivatives_lanes", negative_third)
    with pytest.raises(ConsistencyError, match=r"at \(a, b, p\) = \(0\.789, 1\.24, 0\.421\)"):
        run_sweep(BRACKET)


def test_serial_and_parallel_output_identical():
    serial = run_sweep(BRACKET, workers=1)
    parallel = run_sweep(BRACKET, workers=2)
    assert serial == parallel
    buf_s, buf_p = io.StringIO(), io.StringIO()
    write_sweep_csv(serial, buf_s)
    write_sweep_csv(parallel, buf_p)
    assert buf_s.getvalue() == buf_p.getvalue()


def test_readme_grid_csv_bytes_pinned():
    buf = io.StringIO()
    write_sweep_csv(run_sweep(README_GRID), buf)
    text = buf.getvalue()
    assert text.count("\n") == 1332
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "632871df247f14c0c811df0f1271cfcd08ee7304896d81908606f5b5b996c0e3"
    )


def test_csv_format():
    buf = io.StringIO()
    write_sweep_csv(run_sweep(BRACKET), buf)
    lines = buf.getvalue().split("\n")
    assert lines[0] == "a,b,p,feasible,failed_conditions,case,M"
    first = lines[1].split(",")
    assert len(first) == 7
    assert first[3] in {"true", "false"}
    assert "\r" not in buf.getvalue()


def test_coarse_grid_minimum_near_reference_point():
    # Regression snapshot: on a coarse 0.05 grid spanning the interesting
    # region, the minimal bound sits one step away from the reference point.
    spec = SweepSpec(a=(0.5, 0.95, 0.05), b=(1.05, 1.6, 0.05), p=(0.2, 0.7, 0.05))
    best = run_sweep(spec)[0]
    assert best.feasible
    assert (best.a, best.b, best.p) == (pytest.approx(0.8), pytest.approx(1.25), pytest.approx(0.45))
    assert abs(best.a - 0.789) <= 0.05 + 1e-12
    assert abs(best.b - 1.24) <= 0.05 + 1e-12
    assert abs(best.p - 0.421) <= 0.05 + 1e-12


def test_refine_zero_rounds_is_identity():
    best = run_sweep(BRACKET)[0]
    assert refine(best, BRACKET) == best


def test_refine_never_increases_m():
    spec = SweepSpec(
        a=(0.74, 0.84, 0.05), b=(1.2, 1.3, 0.05), p=(0.4, 0.5, 0.05),
        refine_rounds=2, shrink=4.0,
    )
    best = next(r for r in run_sweep(spec) if r.feasible)
    refined = refine(best, spec)
    assert refined.feasible
    assert refined.M <= best.M


def test_refine_regression_toward_reference_bound():
    # Two shrink-5 rounds from the coarse neighbour of the reference point.
    spec = SweepSpec(
        a=(0.75, 0.85, 0.01), b=(1.2, 1.3, 0.01), p=(0.4, 0.5, 0.01),
        refine_rounds=2, shrink=5.0,
    )
    start = next(
        r for r in run_sweep(spec) if r.feasible and (r.a, r.b, r.p) == (0.8, 1.25, 0.45)
    )
    refined = refine(start, spec)
    assert abs(refined.M - 0.723486) <= 1e-4


def test_refine_requires_feasible_start():
    bad = SweepRecord(
        a=0.1, b=1.1, p=0.1, feasible=False, failed_conditions=("log",), case=None, M=None
    )
    with pytest.raises(ValueError):
        refine(bad, BRACKET)


def test_refine_collapse_warns_and_keeps_incumbent():
    # Single-point shrunken axes engineered to miss the incumbent and land
    # on an infeasible p (log condition fails just below ~0.4186).
    spec = SweepSpec(
        a=(0.769, 0.809, 0.06),
        b=(1.235, 1.245, 0.02),
        p=(0.401, 0.441, 0.05),
        refine_rounds=1,
        shrink=2.0,
    )
    hb = hardness_bound(*REF_PARAMS)
    best = SweepRecord(
        a=REF_PARAMS[0], b=REF_PARAMS[1], p=REF_PARAMS[2], feasible=True,
        failed_conditions=(), case=hb.case, M=hb.M,
    )
    with pytest.warns(UserWarning):
        result = refine(best, spec)
    assert result == best


def test_dp_cross_check():
    rec = next(r for r in run_sweep(BRACKET) if (r.a, r.b, r.p) == REF_PARAMS)
    ratio = dp_cross_check(rec, 1000)
    assert 0.0 < ratio < 1.0
    assert abs(ratio - rec.M) < 5e-3
    bad = SweepRecord(
        a=0.1, b=1.1, p=0.1, feasible=False, failed_conditions=("log",), case=None, M=None
    )
    with pytest.raises(ValueError):
        dp_cross_check(bad, 100)
