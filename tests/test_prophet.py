import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rostop import ParameterError, make_instance, prophet_exact, prophet_limit, validate

from conftest import REF_PARAMS


def test_exact_n2_against_joint_enumeration():
    # Independent oracle: enumerate all 9 joint outcomes of two V draws and
    # take the max with the constant.
    inst, dist = make_instance(*REF_PARAMS, 2)
    expected = 0.0
    for i, j in itertools.product(range(3), repeat=2):
        prob = dist.masses[i] * dist.masses[j]
        expected += prob * max(dist.support[i], dist.support[j], inst.a)
    assert prophet_exact(inst) == pytest.approx(expected, rel=1e-14)


def test_limit_value_and_agreement_with_exact():
    limit = prophet_limit(*REF_PARAMS)
    a, b, p = REF_PARAMS
    assert limit == pytest.approx(1.0 + b * (1.0 - math.exp(-p)) + a * math.exp(-p))
    assert limit == pytest.approx(1.94397, abs=1e-5)
    inst, _ = make_instance(*REF_PARAMS, 10**6)
    assert abs(prophet_exact(inst) - limit) < 1e-5


def test_limit_small_and_large_p():
    a, b = 0.789, 1.24
    assert prophet_limit(a, b, 1e-12) == pytest.approx(1.0 + a, rel=1e-9)
    assert prophet_limit(a, b, 60.0) == pytest.approx(1.0 + b, rel=1e-12)


@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize("bad", [0.0, -0.5])
def test_limit_rejects_non_positive_parameters(index, bad):
    params = list(REF_PARAMS)
    params[index] = bad
    with pytest.raises(ParameterError, match="a, b, p must be positive"):
        prophet_limit(*params)


def test_first_term_tends_to_one():
    prev = None
    for n in (10**3, 10**4, 10**5, 10**6):
        term = n * (1.0 - math.exp(n * math.log1p(-1.0 / (n * n))))
        assert abs(term - 1.0) < 1e-2
        if prev is not None:
            assert abs(term - 1.0) < abs(prev - 1.0)
        prev = term
    assert abs(prev - 1.0) < 1e-5


def test_gap_to_limit_shrinks_with_n():
    limit = prophet_limit(*REF_PARAMS)
    gaps = []
    for n in (10**3, 10**4, 10**5, 10**6):
        inst, _ = make_instance(*REF_PARAMS, n)
        gaps.append(abs(prophet_exact(inst) - limit))
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))


def test_exact_requires_dominating_top_value():
    from rostop import ParameterError

    inst, _ = make_instance(0.789, 2.5, 0.421, 2, unchecked=True)
    with pytest.raises(ParameterError):
        prophet_exact(inst)


@settings(max_examples=150, deadline=None)
@given(
    a=st.floats(0.1, 0.95),
    b=st.floats(1.05, 2.0),
    p=st.floats(0.2, 1.0),
    n=st.integers(3, 10**5),
)
def test_exact_dominates_constant_and_mean(a, b, p, n):
    if not validate(a, b, p, n).passed:
        return
    inst, dist = make_instance(a, b, p, n)
    exact = prophet_exact(inst)
    assert exact >= max(a, dist.mean)
    assert exact > a
