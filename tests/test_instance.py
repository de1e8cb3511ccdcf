import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rostop import (
    ConditionCheck,
    ConditionReport,
    InfeasibleInstanceError,
    InstanceParams,
    ParameterError,
    make_instance,
    validate,
)
from rostop.instance import _MAX_N, CONDITION_NAMES, require_law

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


def test_zero_mass_is_nonnegative_where_the_pmf_row_is_exactly_one():
    # p/n + 1/n^2 rounds to 1, so the law gate passes; 1 - p/n - 1/n^2
    # summed in the other order read -5.55e-17 here.
    point = (0.5, 1.2, 2.666666666666667, 3)
    assert validate(*point).check("pmf").lhs == 1.0
    _, dist = make_instance(*point)
    assert dist.masses[2] == 0.0


def test_pmf_violation_raises_with_report():
    with pytest.raises(InfeasibleInstanceError) as exc_info:
        make_instance(*REF_PARAMS, 1)
    report = exc_info.value.report
    assert not report.check("pmf").passed
    assert "pmf" in report.failed_names()


def test_formal_weights_at_n_1_are_signed():
    inst = InstanceParams(*REF_PARAMS, 1)
    with pytest.raises(InfeasibleInstanceError, match="pmf"):
        require_law(inst)
    dist = inst.distribution()
    assert dist.masses[2] < 0.0
    assert dist.masses[0] == 1.0


def test_law_gate_needs_ordering_pmf_and_b_below_n():
    # The family's minimum fails only `log`, an asymptotic condition: its
    # law is real, so make_instance builds it.
    point = (0.8203641079, 1.3304364620, 0.3716856858)
    assert validate(*point, 1000).failed_names() == ("log",)
    require_law(make_instance(*point, 1000)[0])
    with pytest.raises(InfeasibleInstanceError, match="ordering"):
        require_law(InstanceParams(1.2, 1.24, 0.421, 1000))
    with pytest.raises(ParameterError, match="b < n"):
        require_law(InstanceParams(0.789, 2.5, 0.421, 2))
    # condition II fails there too, but make_instance checks only the law
    assert "II" in validate(0.789, 2.5, 0.421, 2).failed_names()
    with pytest.raises(ParameterError, match="b < n"):
        make_instance(0.789, 2.5, 0.421, 2)


def _raised(fn, *args):
    try:
        fn(*args)
    except (InfeasibleInstanceError, ParameterError) as exc:
        return type(exc)
    return None


@settings(max_examples=300, deadline=None)
@example(a=1.2, b=1.24, p=0.421, n=1000)  # ordering
@example(a=0.789, b=1.24, p=0.421, n=1)  # pmf
@example(a=0.789, b=2.5, p=0.421, n=2)  # b >= n
@example(a=0.8203641079, b=1.3304364620, p=0.3716856858, n=1000)  # only log
@example(a=0.789, b=1.24, p=0.421, n=10**6)  # none
@given(
    a=st.floats(-0.5, 1.5),
    b=st.floats(0.5, 4.0),
    p=st.floats(-0.5, 3.0),
    n=st.one_of(st.integers(1, 6), st.integers(7, 10**6)),
)
def test_make_instance_raises_exactly_when_the_law_gate_does(a, b, p, n):
    assert _raised(make_instance, a, b, p, n) is _raised(require_law, InstanceParams(a, b, p, n))


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
        make_instance(*REF_PARAMS, 0)


def test_numpy_integer_n_accepted_as_python_int():
    assert validate(*REF_PARAMS, np.int64(1000)) == validate(*REF_PARAMS, 1000)
    inst, dist = make_instance(*REF_PARAMS, np.int64(10**6))
    assert type(inst.n) is int and inst.n == 10**6
    assert dist.masses[0] == 1e-12
    inst, _ = make_instance(*REF_PARAMS, np.uint32(100))
    assert type(inst.n) is int


@pytest.mark.parametrize("bad", [True, np.bool_(True), 1000.0, np.float64(1000.0), "1000"])
def test_non_integer_n_rejected(bad):
    with pytest.raises(ParameterError):
        validate(*REF_PARAMS, bad)
    with pytest.raises(ParameterError):
        make_instance(*REF_PARAMS, bad)


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
    # every such point has a real law, also where asymptotic rows fail
    inst, dist = make_instance(a, b, p, n)
    assert all(0.0 <= m <= 1.0 for m in dist.masses)
    assert abs(sum(dist.masses) - 1.0) <= math.ulp(1.0)
    ev = dist.support[0] * dist.masses[0] + dist.support[1] * dist.masses[1]
    assert abs(ev - dist.mean) <= 2 * math.ulp(dist.mean)
    assert dist.mean == (1.0 + b * p) / n
    require_law(inst)


# Reports pinned byte for byte.  The third input takes log of a negative
# ratio in condition I, the fourth has p*b <= -1, so log1p is out of domain.
PINNED_REPORTS = [
    (
        (0.789, 1.24, 0.421, 100),
        '['
        '{"name": "ordering", "lhs": 0.21099999999999997, "rhs": 0.0, "pass": true}, '
        '{"name": "log", "lhs": 0.4200515403030848, "rhs": 0.421, "pass": true}, '
        '{"name": "I", "lhs": 0.31493864294907836, "rhs": 0.332169, "pass": true}, '
        '{"name": "II", "lhs": 0.7121289999999999, "rhs": 1.0, "pass": true}, '
        '{"name": "III", "lhs": 0.2419346298884502, "rhs": 0.41518612252479703, "pass": true}, '
        '{"name": "IV", "lhs": 2.42291974316, "rhs": 0.0, "pass": true}, '
        '{"name": "V", "lhs": 0.9715720513374395, "rhs": 1.0, "pass": true}, '
        '{"name": "pmf", "lhs": 0.0043100000000000005, "rhs": 1.0, "pass": true}'
        ']',
    ),
    (
        (0.789, 1.24, 0.2, 10**6),
        '['
        '{"name": "ordering", "lhs": 0.2, "rhs": 0.0, "pass": true}, '
        '{"name": "log", "lhs": 0.22154226994723591, "rhs": 0.2, "pass": false}, '
        '{"name": "I", "lhs": 0.15474776936836546, "rhs": 0.15780000000000002, "pass": true}, '
        '{"name": "II", "lhs": 0.8118, "rhs": 1.0, "pass": true}, '
        '{"name": "III", "lhs": 0.17262887543569988, "rhs": 0.3240944785040377, "pass": true}, '
        '{"name": "IV", "lhs": 2.2256304, "rhs": 0.0, "pass": true}, '
        '{"name": "V", "lhs": 0.9778824950376502, "rhs": 1.0, "pass": true}, '
        '{"name": "pmf", "lhs": 2.0000100000000002e-07, "rhs": 1.0, "pass": true}'
        ']',
    ),
    (
        (5.0, 1.1, 3.0, 10),
        '['
        '{"name": "ordering", "lhs": -4.0, "rhs": 0.0, "pass": false}, '
        '{"name": "log", "lhs": 1.4586150226995167, "rhs": 3.0, "pass": true}, '
        '{"name": "I", "lhs": NaN, "rhs": 15.0, "pass": false}, '
        '{"name": "II", "lhs": 3.9, "rhs": 1.0, "pass": false}, '
        '{"name": "III", "lhs": 0.2710280373831776, "rhs": NaN, "pass": false}, '
        '{"name": "IV", "lhs": 43.910000000000004, "rhs": 0.0, "pass": true}, '
        '{"name": "V", "lhs": -5.629743132481358, "rhs": 1.0, "pass": true}, '
        '{"name": "pmf", "lhs": 0.31, "rhs": 1.0, "pass": true}'
        ']',
    ),
    (
        (0.5, 3.0, -0.5, 10),
        '['
        '{"name": "ordering", "lhs": -0.5, "rhs": 0.0, "pass": false}, '
        '{"name": "log", "lhs": NaN, "rhs": -0.5, "pass": false}, '
        '{"name": "I", "lhs": 1.3862943611198906, "rhs": -0.25, "pass": false}, '
        '{"name": "II", "lhs": 6.25, "rhs": 1.0, "pass": false}, '
        '{"name": "III", "lhs": 21.0, "rhs": NaN, "pass": false}, '
        '{"name": "IV", "lhs": -1.375, "rhs": 0.0, "pass": false}, '
        '{"name": "V", "lhs": NaN, "rhs": 1.0, "pass": false}, '
        '{"name": "pmf", "lhs": -0.04, "rhs": 1.0, "pass": true}'
        ']',
    ),
]


@pytest.mark.parametrize("args, expected", PINNED_REPORTS)
def test_report_json_pinned(args, expected):
    assert validate(*args).to_json() == expected


def test_report_stores_one_tuple_entry_per_condition():
    report = validate(*REF_PARAMS, 100)
    assert len(report.lhs) == len(report.rhs) == len(report.ok) == len(CONDITION_NAMES)
    rebuilt = ConditionReport(lhs=report.lhs, rhs=report.rhs, ok=report.ok)
    assert rebuilt == report
    assert report.checks[1] == ConditionCheck("log", report.lhs[1], report.rhs[1], report.ok[1])


def test_unknown_check_name_raises_key_error():
    with pytest.raises(KeyError):
        validate(*REF_PARAMS).check("nope")


@settings(max_examples=150, deadline=None)
@given(
    a=st.floats(-1e6, 1e6),
    b=st.floats(-1e6, 1e6),
    p=st.floats(-1e6, 1e6),
    n=st.one_of(st.none(), st.integers(1, 10**12)),
)
def test_report_readers_agree(a, b, p, n):
    report = validate(a, b, p, n)
    checks = report.checks
    assert tuple(c.name for c in checks) == CONDITION_NAMES
    assert report.failed_names() == tuple(c.name for c in checks if not c.passed)
    assert report.passed == (not report.failed_names())
    for i, name in enumerate(CONDITION_NAMES):
        # as tuples, whose comparison takes a NaN witness as equal to itself
        row, expected = report.check(name), checks[i]
        assert (row.name, row.lhs, row.rhs, row.passed) == (
            expected.name, expected.lhs, expected.rhs, expected.passed
        )


def test_overflowing_parameters_report_instead_of_raising():
    # p*b overflows, so v/u underflows to 0 and condition III has no witness
    report = validate(1e300, 1e300, 1e300)
    assert math.isnan(report.check("III").rhs)
    assert report.failed_names() == ("ordering", "log", "III", "V")


def test_size_whose_square_overflows_rejected():
    assert validate(*REF_PARAMS, _MAX_N).check("pmf").passed
    make_instance(*REF_PARAMS, _MAX_N)
    with pytest.raises(OverflowError):
        float((_MAX_N + 1) ** 2)
    for n in (_MAX_N + 1, 10**200):
        with pytest.raises(ParameterError, match="at most 1.34078e"):
            validate(0.789, 1.24, 0.421, n)
        with pytest.raises(ParameterError, match="at most 1.34078e"):
            make_instance(0.789, 1.24, 0.421, n)
