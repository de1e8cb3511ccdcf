import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rostop import (
    InfeasibleInstanceError,
    ParameterError,
    make_instance,
    validate,
)
from rostop.instance import CONDITION_NAMES

from conftest import REF_PARAMS


def test_reference_parameters_pass_for_all_sizes():
    for n in (2, 3, 10, 1000, 10**6):
        assert validate(*REF_PARAMS, n).passed


def test_size_free_validation_passes_reference_parameters():
    report = validate(*REF_PARAMS)
    assert report.passed
    assert report.check("pmf").lhs == 0.0


def test_report_lists_all_eight_checks_in_order():
    report = validate(*REF_PARAMS, 100)
    assert tuple(c.name for c in report.checks) == CONDITION_NAMES


def test_ordering_fails_when_b_does_not_exceed_one():
    report = validate(0.5, 1.0, 0.4, 10**6)
    assert not report.check("ordering").passed
    assert not report.passed


def test_log_condition_fails_at_small_p():
    report = validate(0.789, 1.24, 0.2, 10**6)
    check = report.check("log")
    assert not check.passed
    assert check.lhs == pytest.approx(math.log(1.248), rel=1e-15)
    assert check.lhs > 0.2
    # every other check is still evaluated and reported
    assert len(report.checks) == 8


def test_narrow_log_margin_at_reference_point():
    check = validate(*REF_PARAMS).check("log")
    assert check.passed
    assert 0.0 < check.rhs - check.lhs < 1.5e-3


def test_masses_n100():
    _, dist = make_instance(*REF_PARAMS, 100)
    assert dist.masses[0] == pytest.approx(1e-4, rel=1e-15)
    assert dist.masses[1] == pytest.approx(0.00421, rel=1e-15)
    assert dist.masses[2] == pytest.approx(0.99569, rel=1e-14)


def test_masses_n2():
    _, dist = make_instance(*REF_PARAMS, 2)
    assert dist.masses == (0.25, pytest.approx(0.2105), pytest.approx(0.5395))
    assert dist.support == (2.0, 1.24, 0.0)


def test_pmf_violation_raises_with_report():
    with pytest.raises(InfeasibleInstanceError) as exc_info:
        make_instance(*REF_PARAMS, 1)
    report = exc_info.value.report
    assert not report.check("pmf").passed
    assert "pmf" in report.failed_names()


def test_unchecked_construction_yields_signed_masses():
    inst, dist = make_instance(*REF_PARAMS, 1, unchecked=True)
    assert inst.validated is False
    assert dist.masses[2] < 0.0
    assert dist.masses[0] == 1.0


def test_validate_is_pure():
    assert validate(*REF_PARAMS, 50) == validate(*REF_PARAMS, 50)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(ParameterError):
        validate(bad, 1.24, 0.421, 10)
    with pytest.raises(ParameterError):
        validate(0.789, bad, 0.421, 10)
    with pytest.raises(ParameterError):
        validate(0.789, 1.24, bad, 10)


def test_bad_n_rejected():
    with pytest.raises(ParameterError):
        validate(*REF_PARAMS, 0)
    with pytest.raises(ParameterError):
        validate(*REF_PARAMS, 2.5)
    with pytest.raises(ParameterError):
        make_instance(*REF_PARAMS, 0, unchecked=True)


def test_numpy_integer_n_accepted_as_python_int():
    assert validate(*REF_PARAMS, np.int64(1000)) == validate(*REF_PARAMS, 1000)
    for unchecked in (False, True):
        inst, dist = make_instance(*REF_PARAMS, np.int64(10**6), unchecked=unchecked)
        assert type(inst.n) is int and inst.n == 10**6
        assert dist.masses[0] == 1e-12
    inst, _ = make_instance(*REF_PARAMS, np.uint32(100))
    assert type(inst.n) is int


@pytest.mark.parametrize("bad", [True, np.bool_(True), 1000.0, np.float64(1000.0), "1000"])
def test_non_integer_n_rejected(bad):
    with pytest.raises(ParameterError):
        validate(*REF_PARAMS, bad)
    for unchecked in (False, True):
        with pytest.raises(ParameterError):
            make_instance(*REF_PARAMS, bad, unchecked=unchecked)


def test_report_json_schema():
    import json

    rows = json.loads(validate(*REF_PARAMS, 100).to_json())
    assert len(rows) == 8
    for row in rows:
        assert set(row) == {"name", "lhs", "rhs", "pass"}


def test_pathological_parameters_do_not_crash():
    # Formula domains can break (log of a negative number); the report must
    # still evaluate every row, with NaN witnesses failing their checks.
    report = validate(5.0, 1.1, 3.0, 10)
    assert not report.passed
    assert len(report.checks) == 8


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(0.05, 0.95),
    b=st.floats(1.05, 2.5),
    p=st.floats(0.05, 1.2),
    n=st.integers(3, 10**6),
)
def test_mass_vector_properties(a, b, p, n):
    report = validate(a, b, p, n)
    if not report.passed:
        with pytest.raises(InfeasibleInstanceError):
            make_instance(a, b, p, n)
        return
    inst, dist = make_instance(a, b, p, n)
    assert all(0.0 <= m <= 1.0 for m in dist.masses)
    assert abs(sum(dist.masses) - 1.0) <= math.ulp(1.0)
    ev = dist.support[0] * dist.masses[0] + dist.support[1] * dist.masses[1]
    assert abs(ev - dist.mean) <= 2 * math.ulp(dist.mean)
    assert dist.mean == (1.0 + b * p) / n
    assert inst.validated
