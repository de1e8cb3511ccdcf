import hashlib
import io
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rostop.bound
import rostop.dp as dp_module
import rostop.sweep as sweep_module
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
from rostop.sweep import _axis_values, _grid, _passed_rows, _row_lanes

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


_ULP = 2.0**-52


def _exp_off_by_random_8_ulps(x):
    # The sign drawn per element, so the lanes of one halving move apart.
    signs = np.random.default_rng(x.size).choice([-1.0, 1.0], x.size)
    return np.exp(x) * (1.0 + 8 * _ULP * signs)


@pytest.mark.parametrize(
    "fast_exp",
    [
        pytest.param(lambda x: np.exp(x) * (1.0 + 8 * _ULP), id="plus-8-ulps"),
        pytest.param(lambda x: np.exp(x) * (1.0 - 8 * _ULP), id="minus-8-ulps"),
        pytest.param(_exp_off_by_random_8_ulps, id="random-8-ulps"),
        pytest.param(lambda x: np.full_like(x, np.nan), id="nan"),
    ],
)
def test_halvings_keep_libm_bits_on_a_perturbed_exp(monkeypatch, fast_exp):
    # The halvings run on bound._fast_exp, and the guard hands every lane
    # whose sign it cannot prove to libm.  An exp 8 ulps off numpy's stays
    # inside the guard's allowance, so every record and field keeps its
    # bits; a NaN exp puts every lane in doubt.
    records = run_sweep(README_GRID)
    points = [(r.a, r.b, r.p) for r in records if r.feasible]
    scalar = [hardness_bound(*pt) for pt in points]
    monkeypatch.setattr(rostop.bound, "_fast_exp", fast_exp)
    assert run_sweep(README_GRID) == records
    batched = _hardness_bounds(*np.array(points).T)
    for field, column in batched.items():
        assert column.tolist() == [getattr(hb, field) for hb in scalar], field


def test_small_p_sweep_skips_the_numpy_pass():
    # The halvings run on bound._fast_exp at every p, and the lanes keep
    # hardness_bound's bits at small p too.
    grid = SweepSpec(a=(0.55, 0.65, 0.05), b=(1.0001, 1.0051, 0.001), p=(0.005, 0.025, 0.01))
    points = [(r.a, r.b, r.p) for r in run_sweep(grid) if r.feasible]
    assert len(points) >= 10
    scalar = [hardness_bound(*pt) for pt in points]
    batched = _hardness_bounds(*np.array(points).T)
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
    monkeypatch.setattr(rostop.bound, "_q_derivatives", _negate_third(rostop.bound._q_derivatives))
    negative_third = _negate_third(rostop.bound._q_derivatives_lanes)
    monkeypatch.setattr(rostop.bound, "_q_derivatives_lanes", negative_third)
    first = r"at \(a, b, p\) = \(0\.789, 1\.24, 0\.421\): q''' is not positive"
    with pytest.raises(CertificationError, match=first):
        run_sweep(BRACKET)

    q_prime = rostop.bound._q_prime_lanes

    def later_points_fail_sooner(a, b, p, lam, mu_star, nu):
        # A NaN q' fails the bracket check, a stage before the certificate.
        q1, e1, slope, bad = q_prime(a, b, p, lam, mu_star, nu)
        return np.where(a > 0.79, np.nan, q1), e1, slope, bad

    monkeypatch.setattr(rostop.bound, "_q_prime_lanes", later_points_fail_sooner)
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


def _reference_sweep_csv(records) -> str:
    """The sweep CSV written row by row, every value formatted where it is used."""
    out = io.StringIO()
    out.write("a,b,p,feasible,failed_conditions,case,M\n")
    for a, b, p, feasible, failed, case, M in records:
        m = f"{M:.12g}" if M is not None else ""
        failed = ";".join(failed)
        out.write(f"{a:.12g},{b:.12g},{p:.12g},{str(feasible).lower()},{failed},{case or ''},{m}\n")
    return out.getvalue()


def _sweep_csv(records) -> str:
    buf = io.StringIO()
    write_sweep_csv(records, buf)
    return buf.getvalue()


def _signed_zero_records():
    """Both zeros in each coordinate column, in both orders."""
    records = []
    for column in range(3):
        for zeros in ((0.0, -0.0), (-0.0, 0.0)):
            for z in zeros:
                point = [0.8, 1.25, 0.45]
                point[column] = z
                records.append(SweepRecord(*point, False, ("positivity",), None, None))
    return records


def test_csv_equals_row_by_row_reference_on_the_readme_grid():
    records = run_sweep(README_GRID)
    assert _sweep_csv(records) == _reference_sweep_csv(records)
    # reversed and repeated past two blocks: each block formats its values afresh
    repeated = records[::-1] * (2 * sweep_module._CHUNK // len(records) + 1)
    assert len(repeated) > 2 * sweep_module._CHUNK
    assert _sweep_csv(repeated) == _reference_sweep_csv(repeated)


def test_csv_equals_row_by_row_reference_on_hand_built_records():
    zeros = _signed_zero_records()
    assert _sweep_csv(zeros) == _reference_sweep_csv(zeros)
    extremes = [math.nan, math.inf, -math.inf, 5e-324, 1e300, -1e300]
    records = [
        SweepRecord(x, y, z, True, (), "interior", m)
        for x, y, z, m in zip(extremes, extremes[1:] + extremes[:1], extremes[::-1], extremes)
    ] + [
        SweepRecord(0.8, 1.25, 0.45, True, (), "boundary", -0.0),
        SweepRecord(0.8, 1.25, 0.45, True, (), "interior", math.nan),
        SweepRecord(0.8, 1.25, 0.45, False, (), None, None),
        SweepRecord(0.8, 1.25, 0.45, False, ("log", "positivity"), None, None),
        SweepRecord(0.8, 1.25, 0.46, False, ("log", "positivity"), None, None),
        SweepRecord(0.8, 1.25, 0.46, False, ("log",), None, None),
        SweepRecord(0.8, 1.25, 0.46, False, ("log",), None, None),
        SweepRecord(0.8, 1.25, 0.46, True, (), "interior", 0.72),
    ]
    assert _sweep_csv(records) == _reference_sweep_csv(records)
    assert _sweep_csv(r for r in records + zeros) == _reference_sweep_csv(records + zeros)
    assert _sweep_csv([]) == _reference_sweep_csv([]) == "a,b,p,feasible,failed_conditions,case,M\n"


def test_csv_writer_memory_is_one_block():
    # The writer holds one block's rows and texts, whatever the record count:
    # about 0.54 MB here, against 1.5 MB of text at 30 repeats.
    class Sink:
        def write(self, text):
            pass

    records = run_sweep(README_GRID)
    text = len(_sweep_csv(records))
    block_text = text * sweep_module._CHUNK // len(records)
    peaks = []
    for repeats in (10, 30):
        many = records * repeats
        tracemalloc.start()
        try:
            write_sweep_csv(many, Sink())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < block_text, (peaks, block_text)
    assert peaks[1] < text * 30 / 2, peaks


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


# Draws near the grids, where most rows pass, and anywhere on the finite line,
# where the guards of log1p, log and the divisions fire.
_NEAR_GRID = st.tuples(st.floats(0.0, 1.2), st.floats(0.8, 3.0), st.floats(-0.1, 2.5))
_ANY = st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(_NEAR_GRID, _ANY), min_size=1, max_size=10))
@example([(3.0, 1.0, 0.5)])  # v = 0
@example([(3.0, 2.0, -1.0)])  # u / v < 0
@example([(0.5, 1.0, -1.0), (0.5, 2.0, -1.0)])  # p b = -1 and p b < -1
@example([(0.5, 1.2, 0.0), (0.5, 1.2, -0.0)])  # p = 0
@example([(1e200, 1e200, 1e200)])  # p b overflows, so v / u underflows to 0
def test_row_lanes_equal_validate(points):
    a, b, p = np.array(points).T
    # one list per point; a row the same for every point is a Python constant
    lhs, rhs, _ = (
        np.array(np.broadcast_arrays(*rows)).T.tolist() for rows in _row_lanes(a, b, p)
    )
    reports = [validate(*point) for point in points]
    assert _passed_rows(a, b, p).T.tolist() == [list(r.ok) for r in reports]
    # repr tells -0.0 from 0.0, as the JSON report does
    assert [list(map(repr, row)) for row in lhs] == [list(map(repr, r.lhs)) for r in reports]
    assert [list(map(repr, row)) for row in rhs] == [list(map(repr, r.rhs)) for r in reports]


@pytest.mark.parametrize("axis", ["a", "p"])
def test_non_finite_grid_value_raises_parameter_error(axis):
    # lo + i*step overflows on the last point of an axis whose width is finite
    big = sys.float_info.max
    axes = {"a": (0.7, 0.8, 0.1), "b": (1.2, 1.3, 0.1), "p": (0.4, 0.5, 0.1)}
    axes[axis] = (0.0, big, big / 3)
    spec = SweepSpec(**axes)
    assert _axis_values(axes[axis])[-1] == float("inf")
    with pytest.raises(ParameterError, match=rf"at \(a, b, p\) = .*inf.*: {axis} must be finite"):
        run_sweep(spec)


def _sort_key(rec):
    if rec.feasible:
        return (0, rec.M, rec.a, rec.b, rec.p)
    return (1, 0.0, rec.a, rec.b, rec.p)


def _reference_sweep(spec):
    """One ``validate`` and, where it passes, one ``hardness_bound`` per point."""
    records = []
    for a, b, p in itertools.product(*map(_axis_values, (spec.a, spec.b, spec.p))):
        names = validate(a, b, p).failed_names()
        if names:
            records.append(SweepRecord(a, b, p, False, names, None, None))
        else:
            hb = hardness_bound(a, b, p)
            records.append(SweepRecord(a, b, p, True, (), hb.case, hb.M))
    return sorted(records, key=_sort_key)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_grid_equals_per_point_reference(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    axes = [
        (lo, lo + width, width / count)
        for lo, width, count in zip(
            rng.uniform([0.6, 1.1, 0.3], [0.8, 1.3, 0.5]).tolist(),
            rng.uniform([0.1, 0.1, 0.1], [0.3, 0.4, 0.4]).tolist(),
            rng.integers(3, 9, size=3).tolist(),
        )
    ]
    spec = SweepSpec(*axes)
    monkeypatch.setattr("rostop.sweep._CHUNK", 64)  # several chunks
    records = run_sweep(spec)
    reference = _reference_sweep(spec)
    assert any(r.feasible for r in reference) and not all(r.feasible for r in reference)
    assert records == reference
    assert [list(map(type, r)) for r in records] == [list(map(type, r)) for r in reference]
