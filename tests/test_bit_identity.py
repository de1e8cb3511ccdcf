"""The in-place table builder, sandwich, curves CSV and closed form against plain arithmetic.

``dp._closed_form_tables``, ``verify_bound_sandwich`` and
``write_threshold_csv`` write their large arrays in place, through reversed
views and reused buffers, and the first two walk the steps in tiles.  The
references below are the same arithmetic written the plain way, one fresh
array per operation and the tables built in ``m = n - k`` order and
reversed at the end.  Each ufunc applies the same operation to the same
operands in both, and the cumulative sums run in the same order, so the
outputs must agree bit for bit.  The references run on the same host as
the code under test, so the comparison holds on any CPU, whichever SIMD
path numpy takes there for ``exp`` and ``expm1``.
"""

import io
import math
import random

import numpy as np
import pytest

import rostop.dp as dp_module
from rostop import (
    DiagnosticCheck,
    InstanceParams,
    SweepSpec,
    acceptance_times,
    compute_thresholds,
    make_instance,
    validate,
    verify_bound_sandwich,
    write_threshold_csv,
)
from rostop.asymptotics import SIGN_TOLERANCE
from rostop.sweep import _grid

from conftest import MULTI_BLOCK, PERTURBED, REF_PARAMS

SIZES = [*range(2, 65), 10**3, 10**5, 10**6]

# Eight feasible points of the README's 11^3 sweep grid, drawn with a fixed seed.
_README_GRID = SweepSpec(a=(0.75, 0.85, 0.01), b=(1.2, 1.3, 0.01), p=(0.4, 0.5, 0.01))
GRID_SAMPLE = random.Random(17).sample(
    [pt for pt in _grid(_README_GRID) if validate(*pt).passed], 8
)
POINTS = [REF_PARAMS, *PERTURBED, *GRID_SAMPLE]


def _reference_tables(inst):
    # The closed-form segments with a fresh array per operation, indexed by
    # m = n - k and reversed at the end.
    def geometric(x0, eps, terms):
        return x0 * -np.expm1(terms * np.log1p(-eps)) / eps

    def first(flags):
        i = int(flags.argmax())
        return i if flags[i] else flags.size

    def discounted_sums(g0, rate, u):
        # blocks of int(600 / log discount) steps, each restarting from the
        # last G before it; at rate 1, G = u
        if rate == 1.0:
            return u.copy()
        log_discount = -math.log1p(-rate)
        size = int(dp_module._MAX_LOG_DISCOUNT / log_discount)
        g, parts = g0, []
        for start in range(0, u.size, size):
            block = u[start:start + size]
            w = np.arange(1.0, block.size + 1.0)
            w *= log_discount
            np.exp(w, out=w)
            s = block * w
            np.cumsum(s, out=s)
            s += g
            s /= w
            g = s[-1]
            parts.append(s)
        return np.concatenate(parts)

    n = inst.n
    a, b, p = inst.a, inst.b, inst.p
    w_top = inst.distribution().masses[0]
    eps = p / n + 1.0 / (n * n)
    x0 = (1.0 + b * p) / n
    top = w_top * n
    rem = np.arange(1.0, n + 2.0)

    phi = geometric(x0, eps, rem)
    phi[0] = x0
    m1 = first(~(b > phi[:n]))
    if m1 < n:
        x_star = phi[m1]
        phi[m1 + 1:] = x_star + (n - x_star) * -np.expm1(rem[:n - m1] * math.log1p(-w_top))
        assert not (b > phi[m1:n]).any()

    u = np.maximum(a, phi[:n])
    g = np.empty(n + 1)
    g[0] = a
    g[1:] = discounted_sums(a, eps, rem[:n] * x0 + u)
    phibar = g / rem
    m2 = first(~(b > phibar[:n]))
    if m2 < n:
        u[m2:] += rem[m2:n] * top
        g[m2 + 1:] = discounted_sums(g[m2], w_top, u[m2:])
        phibar[m2 + 1:] = g[m2 + 1:] / rem[m2 + 1:]
        assert not (b > phibar[m2:n]).any()
    return phi[::-1].copy(), phibar[::-1].copy()


def _reference_times(inst, tables):
    def crossing(table, value):
        flags = table[1:] <= value
        i = int(flags.argmax())
        return 1 + (i if flags[i] else flags.size)

    return (
        crossing(tables.phi, inst.b), crossing(tables.phibar, inst.b), crossing(tables.phi, inst.a)
    )


def _reference_bound_checks(inst, tables, times):
    # The sandwich's lower- and upper-bound rows from a gathered tail-sum
    # table and fresh arrays for each bound.
    n = inst.n
    a, b, p = inst.a, inst.b, inst.p
    eps = p / n + 1.0 / (n * n)
    coeff = (1.0 + (b - a) * p) / n - a / (n * n)

    k_lo = max(1, times.k_n - 1)
    lower_margin = math.inf
    if k_lo <= n - 1:
        lengths = np.arange(n - k_lo, 0, -1)
        nested = np.cumsum(-np.expm1(np.arange(1.0, lengths.max() + 1.0) * np.log1p(-eps)) / eps)
        lower = a + coeff * (nested[lengths - 1] / (lengths + 1.0))
        lower_margin = float(np.min(tables.phibar[k_lo:n] - lower))

    upper_margin = math.inf
    if times.j_n <= n - 1:
        ks = np.arange(times.j_n, n)
        upper = a + (n - ks) / 2.0 * (1.0 + (b - a) * p) / n
        upper_margin = float(np.min(upper - tables.phibar[times.j_n:n]))
    return (
        DiagnosticCheck("lower_bound", k_lo, n - 1, lower_margin, lower_margin >= -SIGN_TOLERANCE),
        DiagnosticCheck(
            "upper_bound", times.j_n, n - 1, upper_margin, upper_margin >= -SIGN_TOLERANCE
        ),
    )


def _reference_csv(tables, stride):
    n = tables.n
    ks = list(range(1, n + 1, stride))
    if ks[-1] != n:
        ks.append(n)
    phi, phibar = tables.phi, tables.phibar
    rows = "".join(f"{k},{float(phi[k]):.15g},{float(phibar[k]):.15g}\n" for k in ks)
    return "k,phi,phibar\n" + rows


def _csv(tables, stride):
    buf = io.StringIO()
    write_threshold_csv(tables, stride, buf)
    return buf.getvalue()


@pytest.mark.parametrize("point", POINTS)
def test_in_place_outputs_equal_reference_arithmetic(point):
    for n in SIZES:
        inst, _ = make_instance(*point, n)
        phi, phibar = _reference_tables(inst)
        tables = compute_thresholds(inst)
        assert np.array_equal(tables.phi[1:], phi[1:]), n
        assert np.array_equal(tables.phibar, phibar), n

        times = acceptance_times(tables, inst)
        report = verify_bound_sandwich(inst, tables, times)
        assert report.checks[:2] == _reference_bound_checks(inst, tables, times), n

        # stride 7 and 997 leave a remainder, so the final row n is appended
        for stride in (1, 7) if n <= 10**3 else (997, 1000):
            assert _csv(tables, stride) == _reference_csv(tables, stride), (n, stride)


def _assert_equal_reference(inst):
    phi, phibar = _reference_tables(inst)
    tables = compute_thresholds(inst)
    assert np.array_equal(tables.phi[1:], phi[1:]), inst
    assert np.array_equal(tables.phibar, phibar), inst
    times = acceptance_times(tables, inst)
    assert (times.k_n, times.kbar_n, times.j_n) == _reference_times(inst, tables), inst
    report = verify_bound_sandwich(inst, tables, times)
    assert report.checks[:2] == _reference_bound_checks(inst, tables, times), inst


@pytest.mark.parametrize("tile", [7, 64])
@pytest.mark.parametrize("point", POINTS)
def test_tiles_equal_reference_arithmetic(point, tile, monkeypatch):
    # The pass, the crossings and the sandwich walk k in tiles; cumulative
    # sums carry across tile edges, which short tiles put everywhere.
    monkeypatch.setattr(dp_module, "_TILE", tile)
    for n in [*range(2, 65), 10**3]:
        _assert_equal_reference(make_instance(*point, n)[0])


# Laws whose discounted sums run in blocks: the zero atom's mass is below
# e^-600/n, (0.5, 1.001, 700) would need the discount e^713 over all n
# steps, and p = n(1 - 1e-15) - 1/n leaves blocks of 17 steps.
BLOCKED = [
    *MULTI_BLOCK, (0.5, 1.001, 700.0, 2 * 10**4), (0.5, 1.2, 10**4 * (1 - 1e-15) - 1e-4, 10**4)
]


@pytest.mark.parametrize("tile", [7, 64, dp_module._TILE])
@pytest.mark.parametrize("params", BLOCKED)
def test_blocked_sums_equal_reference_arithmetic(params, tile, monkeypatch):
    monkeypatch.setattr(dp_module, "_TILE", tile)
    _assert_equal_reference(make_instance(*params)[0])


@pytest.mark.parametrize("tile", [7, dp_module._TILE])
def test_every_block_equals_reference_arithmetic(tile, monkeypatch):
    # A formal law with b above n keeps both tables below b, so the low
    # regime's sum runs through all of its 3 and 12 blocks.
    monkeypatch.setattr(dp_module, "_TILE", tile)
    for params in [(0.5, 4e4, 1400 - 1 / 4000, 4000), (0.5, 2e3, 200 * (1 - 1e-15) - 1 / 200, 200)]:
        inst = InstanceParams(*params)
        phi, phibar = _reference_tables(inst)
        tables = dp_module._closed_form_tables(inst)
        assert np.array_equal(tables[0][1:], phi[1:]) and np.array_equal(tables[1], phibar), params


def test_full_curves_csv_at_n_1e5_equals_reference():
    inst, _ = make_instance(*REF_PARAMS, 10**5)
    tables = compute_thresholds(inst)
    assert _csv(tables, 1) == _reference_csv(tables, 1)


@pytest.mark.parametrize("point", [REF_PARAMS, *PERTURBED])
def test_phi_closed_form_equals_reference_expression(point):
    # The table's phi on [k_n, n]; below k_n, where the table leaves the
    # closed form, the geometric sum that the pass evaluates.
    for n in (2, 3, 64, 10**3, 10**6):
        inst, _ = make_instance(*point, n)
        tables = compute_thresholds(inst)
        k_n = acceptance_times(tables, inst).k_n
        law = inst.distribution()
        w_top, w_mid, _ = law.masses
        x0 = (1.0 + inst.b * inst.p) / n
        eps = inst.p / n + 1.0 / (n * n)
        for i in {1, (n + 1) // 3, n // 2, n - 1}:
            expected = float(x0 * -np.expm1((n - i + 1) * np.log1p(-eps)) / eps)
            if i >= k_n:
                got = tables.phi[i]
            else:
                got = dp_module._geometric(law.mean, w_mid + w_top, n - i + 1)
            assert got == expected, (n, i)
