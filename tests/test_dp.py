import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rostop.dp as dp_module
from rostop import (
    ConsistencyError,
    InfeasibleInstanceError,
    InstanceParams,
    ParameterError,
    ThresholdTables,
    acceptance_times,
    compute_thresholds,
    exhaustive_optimal_value,
    gambler_prophet_ratio,
    hardness_bound,
    lambda_mu_star,
    make_instance,
    optimal_value,
    phi_closed_form,
    prophet_exact,
    simulate_policy,
    validate,
    verify_bound_sandwich,
    write_threshold_csv,
)
from rostop.instance import require_law

from conftest import MULTI_BLOCK, PERTURBED, REF_PARAMS
from test_bit_identity import _csv, _reference_csv


def _ref_instance(n):
    return make_instance(*REF_PARAMS, n)[0]


def _backward_loop(inst):
    """The recursion step by step in float64: the reference for the closed form.

    Unlike ``compute_thresholds`` it takes any ``InstanceParams``, formal
    weights included (at ``n = 1`` the zero mass is negative).
    """
    n = inst.n
    a, b = inst.a, inst.b
    nv = float(n)
    law = inst.distribution()
    w_top, w_mid, w_zero = law.masses
    phi = np.empty(n + 1)
    phibar = np.empty(n + 1)
    pk = phi[n] = law.mean
    pbk = phibar[n] = a
    top = w_top * nv
    # pk/pbk hold phi[k+1]/phibar[k+1]; E(V v x) is expanded into its three
    # weighted terms with the dominant-mass term w_zero*x added last.
    for k in range(n - 1, -1, -1):
        rem = nv + 1.0 - k
        nxt = (top + w_mid * (b if b > pk else pk)) + w_zero * pk
        pbk = (a if a > pk else pk) / rem + (1.0 - 1.0 / rem) * (
            (top + w_mid * (b if b > pbk else pbk)) + w_zero * pbk
        )
        pk = nxt
        phi[k] = pk
        phibar[k] = pbk
    return phi, phibar


def test_hand_unrolled_recursion_n2():
    # One backward step by hand: masses (1/4, p/2, remainder), terminal
    # values (1+bp)/2 and a.
    a, b, p = REF_PARAMS
    inst = _ref_instance(2)
    tables = compute_thresholds(inst)
    phi2 = (1.0 + b * p) / 2.0
    assert tables.phi[2] == phi2
    assert tables.phibar[2] == a
    w_top, w_mid, w_zero = 0.25, p / 2.0, 1.0 - p / 2.0 - 0.25
    phi1 = w_top * 2.0 + w_mid * max(b, phi2) + w_zero * phi2
    assert tables.phi[1] == pytest.approx(phi1, rel=1e-14)
    assert tables.phi[1] == pytest.approx(1.17159, abs=5e-6)
    ev_bar = w_top * 2.0 + w_mid * max(b, a) + w_zero * max(a, 0.0)
    phibar1 = max(a, phi2) / 2.0 + 0.5 * ev_bar
    assert tables.phibar[1] == pytest.approx(phibar1, rel=1e-14)


@pytest.mark.parametrize("n", [2, 3, 17, 1000])
def test_terminal_values_exact(n):
    a, b, p = REF_PARAMS
    tables = compute_thresholds(_ref_instance(n))
    assert tables.phi[n] == (1.0 + b * p) / n
    assert tables.phibar[n] == a


def test_acceptance_times_n2():
    inst = _ref_instance(2)
    times = acceptance_times(compute_thresholds(inst), inst)
    # b exceeds phi_1 ~ 1.17159 so it is accepted immediately; a only at step 2.
    assert times.k_n == 1
    assert times.j_n == 2
    assert times.kbar_n == 1
    assert (times.mu_n, times.lambda_n) == (0.5, 1.0)


def test_acceptance_time_is_first_index_when_value_dominates():
    inst = _ref_instance(2)
    tables = compute_thresholds(inst)
    assert inst.b >= tables.phi[1]
    assert acceptance_times(tables, inst).k_n == 1


def test_empty_crossing_set_encodes_n_plus_one():
    n = 4
    inst = _ref_instance(n)
    arr = np.full(n + 1, np.inf)
    arr[0] = np.nan
    arr.flags.writeable = False
    tables = ThresholdTables(n=n, phi=arr, phibar=arr)
    times = acceptance_times(tables, inst)
    assert times.k_n == times.kbar_n == times.j_n == n + 1
    assert times.nu_n == (n + 1) / n


def test_million_scale_acceptance_times(ref_dp):
    _, _, times = ref_dp.get(10**6)
    assert abs(times.k_n - 2253) <= 2
    assert abs(times.kbar_n - 211231) <= 2
    assert abs(times.j_n - 415187) <= 2


def test_monotone_and_range_reference_n1000(ref_dp):
    inst, tables, _ = ref_dp.get(1000)
    phi = tables.phi[1:]
    phibar = tables.phibar[1:]
    assert np.all(np.diff(phi) <= 0)
    assert np.all(np.diff(phibar) <= 0)
    assert np.all(phi > 0) and np.all(phi <= inst.n)
    assert np.all(phibar > 0) and np.all(phibar <= inst.n)


def test_crossing_consistency(ref_dp):
    for n in (1000, 10**4):
        inst, tables, times = ref_dp.get(n)
        for first, table, value in (
            (times.k_n, tables.phi, inst.b),
            (times.kbar_n, tables.phibar, inst.b),
            (times.j_n, tables.phi, inst.a),
        ):
            assert table[first] <= value
            if first > 1:
                assert table[first - 1] > value


def test_ordering_of_acceptance_times(ref_dp):
    for n in (1000, 10**4):
        _, _, times = ref_dp.get(n)
        assert times.k_n <= times.kbar_n <= times.j_n


def test_optimal_value_n2_value():
    inst = _ref_instance(2)
    assert optimal_value(inst, compute_thresholds(inst)) == pytest.approx(1.2532, abs=5e-5)


@pytest.mark.parametrize("n", [1, 2, 1000])
def test_step_zero_holds_the_optimal_value(n):
    # The pass runs down to k = 0: phibar[0] is the value before the first
    # arrival; phi[0] has no meaning, since no arrival has been seen.  At
    # n = 1 the weights are formal: the pass refuses them, and the reference
    # loop's step 0 is the exhaustive oracle's value.
    inst = InstanceParams(*REF_PARAMS, n)
    if n == 1:
        with pytest.raises(InfeasibleInstanceError, match="pmf"):
            compute_thresholds(inst)
        assert abs(_backward_loop(inst)[1][0] - exhaustive_optimal_value(inst)) <= 1e-12
        return
    tables = compute_thresholds(inst)
    assert np.isnan(tables.phi[0])
    assert tables.phibar[0] == optimal_value(inst, tables)


def test_optimal_value_needs_finite_step_zero():
    n = 4
    inst = _ref_instance(n)
    arr = np.full(n + 1, np.inf)
    arr[0] = np.nan
    arr.flags.writeable = False
    with pytest.raises(ValueError, match="phibar\\[0\\]"):
        optimal_value(inst, ThresholdTables(n=n, phi=arr, phibar=arr))


def test_ratio_in_unit_interval(ref_dp):
    inst, tables, _ = ref_dp.get(1000)
    ratio = gambler_prophet_ratio(inst, tables)
    assert 0.0 < ratio < 1.0
    assert ratio == optimal_value(inst, tables) / prophet_exact(inst)


def test_phi_closed_form_at_n_is_exact():
    a, b, p = REF_PARAMS
    for n in (2, 10, 1000):
        inst = _ref_instance(n)
        assert phi_closed_form(inst, n) == (1.0 + b * p) / n


def test_phi_closed_form_matches_recursion_above_k(ref_dp):
    inst, tables, times = ref_dp.get(10**4)
    ks = range(times.k_n, inst.n + 1)
    worst = max(
        abs(phi_closed_form(inst, i) - tables.phi[i]) / tables.phi[i] for i in ks
    )
    assert worst <= 1e-9


def test_phi_closed_form_near_j(ref_dp):
    inst, _, times = ref_dp.get(10**6)
    assert phi_closed_form(inst, times.j_n) <= inst.a + 1e-4


def test_phi_closed_form_index_errors():
    inst = _ref_instance(10)
    with pytest.raises(IndexError):
        phi_closed_form(inst, 0)
    with pytest.raises(IndexError):
        phi_closed_form(inst, 11)


def _csv_rows(tables, stride):
    # The curves CSV's data rows as (k, phi text, phibar text).
    lines = _csv(tables, stride).splitlines()
    assert lines[0] == "k,phi,phibar"
    return [(int(k), phi, phibar) for k, phi, phibar in (r.split(",") for r in lines[1:])]


def test_curve_rows_full_dump():
    inst = _ref_instance(4)
    tables = compute_thresholds(inst)
    rows = _csv_rows(tables, 1)
    assert [r[0] for r in rows] == [1, 2, 3, 4]


def test_curve_rows_stride_includes_terminal(ref_dp):
    inst, tables, _ = ref_dp.get(10**6)
    rows = _csv_rows(tables, 1000)
    assert len(rows) == 1001
    k, phi_n, phibar_n = rows[-1]
    assert k == 10**6
    assert phi_n == f"{(1.0 + inst.b * inst.p) / 10**6:.15g}"
    assert phibar_n == f"{inst.a:.15g}"


def test_curve_row_at_first_crossing(ref_dp):
    inst, tables, times = ref_dp.get(1000)
    rows = {k: float(v) for k, v, _ in _csv_rows(tables, 1)}
    assert rows[times.k_n] <= inst.b < rows[times.k_n - 1]


def test_curve_stride_validation(ref_dp):
    _, tables, _ = ref_dp.get(1000)
    with pytest.raises(ValueError):
        write_threshold_csv(tables, 0, io.StringIO())


@pytest.mark.parametrize("stride", [True, 2.0, 0])
def test_stride_must_be_a_positive_integer(ref_dp, stride):
    # True would read as 1 and 2.0 would fail inside range(); both are refused
    # like 0, and the CSV writer refuses before writing anything.
    _, tables, _ = ref_dp.get(1000)
    buf = io.StringIO()
    with pytest.raises(ValueError, match="stride"):
        write_threshold_csv(tables, stride, buf)
    assert buf.getvalue() == ""


def test_numpy_integer_stride_accepted(ref_dp):
    _, tables, _ = ref_dp.get(1000)
    assert _csv(tables, np.int64(7)) == _csv(tables, 7)


def test_threshold_csv_format():
    inst = _ref_instance(4)
    tables = compute_thresholds(inst)
    buf = io.StringIO()
    write_threshold_csv(tables, 1, buf)
    lines = buf.getvalue().split("\n")
    assert lines[0] == "k,phi,phibar"
    assert lines[1] == f"1,{tables.phi[1]:.15g},{tables.phibar[1]:.15g}"
    assert len(lines) == 6 and lines[-1] == ""
    assert "\r" not in buf.getvalue()


def _hand_built(values):
    # Tables whose rows k = 1..n hold the values in order, phibar reversed.
    tail = np.asarray(values, dtype=float)
    return ThresholdTables(
        n=tail.size,
        phi=np.concatenate(([np.nan], tail)),
        phibar=np.concatenate(([np.nan], tail[::-1])),
    )


def _formatter_cases(rng, size):
    """Doubles where '%.15g' is hard to reproduce, in random order."""
    # exact ties at the 15th digit: f / 2^j with f * 5^j odd and of 16 digits
    j = rng.integers(1, 20, size)
    f = np.floor(rng.uniform(1e15 / 5.0**j, 1e16 / 5.0**j)).astype(np.int64) | 1
    keep = (f * 5**j >= 10**15) & (f * 5**j < 10**16)
    ties = f[keep] / 2.0 ** j[keep]
    decimals = rng.integers(10**14, 10**15, size) * 10.0 ** rng.integers(-19, 1, size)
    spread = 10.0 ** rng.uniform(-7.0, 17.0, size)
    powers = 10.0 ** np.arange(-7.0, 18.0)
    # a few ulps below a power of ten: log10 may round up to the power
    below = (powers[:, None] - np.spacing(powers)[:, None] * np.arange(1.0, 17.0)).ravel()
    edges = np.array([1e-4, 1e-5, 1e14, 1e15, 9.9999999999999995e-5, 999999999999999.5,
                      123456789012345.5, 12345678901234.25, 0.5, 1.0, 5.0, 12345.0, 2.0**40,
                      0.0, -0.0, -1.5, -123.456, np.inf, -np.inf, np.nan])
    pool = np.concatenate([ties, decimals, spread, powers, below, edges])
    with np.errstate(invalid="ignore"):
        pool = np.concatenate([pool, np.nextafter(pool, np.inf), np.nextafter(pool, -np.inf)])
    return rng.permutation(pool)


def test_csv_rows_equal_percent_formatting_on_hard_doubles(monkeypatch):
    # Ties, powers of ten, the 1e-4 / 1e-5 and 1e15 edges of %g's fixed
    # notation, their neighbours, integers, zeros, negatives, nan and inf,
    # in blocks of 1,000 rows so that the fast path also meets the
    # block edges.
    monkeypatch.setattr(dp_module, "_CSV_BLOCK", 1000)
    tables = _hand_built(_formatter_cases(np.random.default_rng(18), 6000))
    assert tables.n > 20_000
    assert _csv(tables, 1) == _reference_csv(tables, 1)
    assert _csv(tables, 7) == _reference_csv(tables, 7)


@pytest.mark.parametrize("stride", [1, 7])
def test_csv_equal_across_block_edges_and_the_cutoff(monkeypatch, stride):
    def check(rows):
        # n with this many rows; for stride 7 the last row is the appended k = n
        n = rows if stride == 1 else 7 * (rows - 2) + 2
        tables = compute_thresholds(_ref_instance(n))
        assert dp_module._curve_rows(tables, stride) == rows
        assert _csv(tables, stride) == _reference_csv(tables, stride), rows

    default = dp_module._CSV_BLOCK
    for rows in (default - 1, default, default + 1):
        check(rows)
    block = 600
    monkeypatch.setattr(dp_module, "_CSV_BLOCK", block)
    cutoff = dp_module._CSV_MIN_ROWS
    for rows in (cutoff - 1, cutoff, block - 1, block, block + 1, 3 * block + 1):
        check(rows)


def test_csv_writer_memory_bounded_by_the_block(monkeypatch):
    # A sink that drops the text leaves only the writer's own allocations.
    class Sink:
        def write(self, text):
            pass

    block = 1024
    monkeypatch.setattr(dp_module, "_CSV_BLOCK", block)
    peaks = []
    for blocks in (4, 16):
        tables = compute_thresholds(_ref_instance(blocks * block))
        tracemalloc.start()
        try:
            write_threshold_csv(tables, 1, Sink())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_csv_writer_scratch_at_the_default_block():
    # 25 blocks of the default size at n = 10^5 peak near 1.1 MB; blocks of
    # 2^16 rows peaked at 17.6 MB.
    class Sink:
        def write(self, text):
            pass

    tables = compute_thresholds(_ref_instance(10**5))
    tracemalloc.start()
    try:
        write_threshold_csv(tables, 1, Sink())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


@pytest.mark.parametrize("n, entries", [(10, 6), (3, 9), (0, 1)])
def test_curves_need_n_plus_one_entries(n, entries):
    # n = 10 with 6 entries gave 5 rows and no k = n row; n = 3 with 9
    # entries leaked numpy's slice-assignment error from the CSV writer.
    # Such tables cannot be built, so no writer or reader ever sees them.
    values = np.linspace(2.0, 1.0, entries)
    with pytest.raises(ValueError, match=f"n={n} need n \\+ 1 >= 2 entries each, got {entries}"):
        ThresholdTables(n=n, phi=values, phibar=values)


def test_backward_pass_bit_reproducible():
    inst = _ref_instance(5000)
    t1 = compute_thresholds(inst)
    t2 = compute_thresholds(inst)
    assert np.array_equal(t1.phi[1:], t2.phi[1:])
    assert np.array_equal(t1.phibar[1:], t2.phibar[1:])


_TABLE_CONSUMERS = {
    "acceptance_times": lambda inst, tables: acceptance_times(tables, inst),
    "optimal_value": optimal_value,
    "gambler_prophet_ratio": gambler_prophet_ratio,
    "simulate_policy": lambda inst, tables: simulate_policy(inst, tables, 1000, 1),
    "verify_bound_sandwich": lambda inst, tables: verify_bound_sandwich(
        inst, tables, acceptance_times(compute_thresholds(inst), inst)
    ),
}


@pytest.mark.parametrize("mismatch", ["other_n", "short_arrays"])
@pytest.mark.parametrize("consumer", sorted(_TABLE_CONSUMERS))
def test_tables_for_another_size_rejected(consumer, mismatch):
    # n = 20 tables read against an n = 100 instance would silently define
    # another stopping rule; also when only the arrays are of the wrong size.
    # Arrays of the wrong size are refused when the tables are built.
    inst = _ref_instance(100)
    small = compute_thresholds(_ref_instance(20))
    if mismatch == "short_arrays":
        with pytest.raises(ValueError, match="n=100 need n \\+ 1 >= 2 entries each, got 21"):
            ThresholdTables(n=100, phi=small.phi, phibar=small.phibar)
        return
    with pytest.raises(ValueError, match="tables do not match the instance"):
        _TABLE_CONSUMERS[consumer](inst, small)


def test_tables_are_read_only(ref_dp):
    _, tables, _ = ref_dp.get(1000)
    with pytest.raises(ValueError):
        tables.phi[3] = 0.0


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.6, 0.95),
    b=st.floats(1.05, 1.45),
    p=st.floats(0.35, 0.8),
    n=st.integers(2, 40),
)
def test_monotonicity_property_small_instances(a, b, p, n):
    if not validate(a, b, p, n).passed:
        return
    inst, _ = make_instance(a, b, p, n)
    tables = compute_thresholds(inst)
    assert np.all(np.diff(tables.phi[1:]) <= 0)
    assert np.all(np.diff(tables.phibar[1:]) <= 0)
    assert np.all(tables.phi[1:] > 0)
    assert np.all(tables.phibar[1:] <= n)


def _discount_log(inst):
    # n * -log(1 - eps): the log of the discount that one block over all n
    # steps would need; above dp._MAX_LOG_DISCOUNT the pass runs in blocks.
    w_top, w_mid, _ = inst.distribution().masses
    return inst.n * -math.log1p(-(w_mid + w_top))


_SMALL_N = [
    *((point, range(2, 65)) for point in (REF_PARAMS, *PERTURBED)),
    *((params[:3], [params[3]]) for params in MULTI_BLOCK),
]


@pytest.mark.parametrize(
    "point, sizes", _SMALL_N, ids=[f"point{i}" for i in range(len(_SMALL_N))]
)
def test_closed_form_matches_scalar_loop_at_small_n(point, sizes):
    # The step-by-step loop is the reference for the closed-form segments;
    # at these sizes both are within a few ulps of the exact recursion.
    for n in sizes:
        inst, _ = make_instance(*point, n)
        tables, loop = compute_thresholds(inst), _backward_loop(inst)
        np.testing.assert_allclose(tables.phi[1:], loop[0][1:], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(tables.phibar, loop[1], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("rate, size", [(0.35, 4000), (1.0 - 1e-15, 200), (1.0, 50)])
def test_discounted_sums_in_blocks_follow_the_recursion(rate, size):
    # A formal law with b above n and eps about ``rate`` keeps both tables
    # below b, in their low regime, so phibar's discounted sum runs through
    # every block: 3 and 12 of them (of 1392 and 17 steps) for the first two
    # rates; at rate 1 there are no weights.  On real laws phibar reaches b
    # inside the first block, so the later blocks are checked here.
    inst = InstanceParams(0.5, 10.0 * size, rate * size - 1.0 / size, size)
    phi, phibar = dp_module._closed_form_tables(inst)
    assert np.all(phi[1:] < inst.b) and np.all(phibar[1:] < inst.b)
    if rate < 1.0:
        assert _discount_log(inst) > (2 if rate < 0.5 else 11) * dp_module._MAX_LOG_DISCOUNT
    loop = _backward_loop(inst)
    np.testing.assert_allclose(phi[1:], loop[0][1:], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(phibar, loop[1], rtol=1e-13, atol=0.0)


def test_phi_falling_back_below_b_raises_naming_its_switch(monkeypatch):
    # A formal law with b above n: a _geometric that writes b puts phi at b
    # from step n - 1 down, so phi switches there, and its high regime then
    # relaxes toward n < b and falls below b at the next step.
    inst = InstanceParams(0.5, 12.0, 0.4, 8)

    def at_b(x0, eps, terms, out):
        out.fill(inst.b)
        return out

    monkeypatch.setattr(dp_module, "_geometric", at_b)
    with pytest.raises(
        ConsistencyError, match=r"^phi falls below b again after step 7: no closed form$"
    ):
        dp_module._closed_form_tables(inst)


def test_phibar_falling_back_below_b_raises_naming_its_switch():
    # A formal law with n < b < a: phibar[n] = a puts phibar at b or above
    # from step n - 1, and its high regime then relaxes toward n < b.  phi
    # stays below b, as its fixed point (1 + bp) / (p + 1/n) is below b when
    # b > n.
    inst = InstanceParams(12.12, 12.0, 0.4, 8)
    with pytest.raises(
        ConsistencyError, match=r"^phibar falls below b again after step 7: no closed form$"
    ):
        dp_module._closed_form_tables(inst)


def test_multi_block_points_need_more_than_one_block():
    for params in MULTI_BLOCK:
        assert _discount_log(InstanceParams(*params)) > dp_module._MAX_LOG_DISCOUNT, params


@pytest.mark.parametrize("n", range(2, 9))
def test_laws_without_a_zero_atom_match_the_oracle(n):
    # p = n - 1/n leaves no zero atom: its float mass is 0 at every size.
    # The pass, the prophet and the sandwich take such laws without a warning.
    inst, dist = make_instance(0.5, 1.2, n - 1.0 / n, n)
    assert dist.masses[2] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tables = compute_thresholds(inst)
        times = acceptance_times(tables, inst)
        verify_bound_sandwich(inst, tables, times)
        assert 0.0 < gambler_prophet_ratio(inst, tables) <= 1.0
    assert abs(optimal_value(inst, tables) - exhaustive_optimal_value(inst)) <= 1e-12


@pytest.mark.parametrize(
    "params, error",
    [
        ((*REF_PARAMS, 1), InfeasibleInstanceError),  # n = 1: negative zero mass
        ((0.789, 2.5, 0.421, 2), ParameterError),  # b >= n
        ((0.5, 1.2, 1.9, 2), InfeasibleInstanceError),  # pmf > 1
        ((0.789, 1.24, -0.3, 5), InfeasibleInstanceError),  # p < 0
        ((5.69, 5.43, 1.53, 3), InfeasibleInstanceError),  # a > b > 1
    ],
)
def test_unreal_laws_raise_the_law_gate_error(params, error):
    inst = InstanceParams(*params)
    for fn in (require_law, compute_thresholds, prophet_exact):
        with pytest.raises(error):
            fn(inst)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peaks_beyond_tables(point, n):
    # tracemalloc peaks of the pass beyond the two tables it returns, and of
    # the sandwich, which allocates no table.
    inst, _ = make_instance(*point, n)
    tables, build = _traced_peak(compute_thresholds, inst)
    assert np.all(np.isfinite(tables.phibar))
    times = acceptance_times(tables, inst)
    _, sandwich = _traced_peak(verify_bound_sandwich, inst, tables, times)
    return build - tables.phi.nbytes - tables.phibar.nbytes, sandwich


def test_large_p_law_builds_in_bounded_memory():
    # The pass holds the two tables and O(_TILE) scratch, the sandwich only
    # scratch: neither needs more beyond the tables at n = 2^20 than at
    # 2^17, at the reference point or at p = 700, whose discount over all n
    # steps would be e^713, so that its sums run in blocks.
    assert _discount_log(make_instance(0.5, 1.001, 700.0, 2**17)[0]) > dp_module._MAX_LOG_DISCOUNT
    for point in (REF_PARAMS, (0.5, 1.001, 700.0)):
        small, large = _peaks_beyond_tables(point, 2**17), _peaks_beyond_tables(point, 2**20)
        for s, l in zip(small, large):
            assert abs(l - s) <= 0.1 * s, (point, small, large)


def test_family_minimum_through_make_instance():
    # The family's minimum fails only `log`: the finite-size program takes it,
    # and its ratio is below the paper's 0.7235, while the asymptotic bound,
    # which needs every row, refuses it.
    point = (0.8203641079, 1.3304364620, 0.3716856858)
    ratios = []
    for n in (10**3, 10**6):
        inst, _ = make_instance(*point, n)
        ratios.append(gambler_prophet_ratio(inst, compute_thresholds(inst)))
    assert abs(ratios[0] - 0.7233161949415226) <= 1e-12
    assert abs(ratios[1] - 0.7230243046) <= 1e-9
    for fn in (hardness_bound, lambda_mu_star):
        with pytest.raises(InfeasibleInstanceError, match=r"failed checks: log\)"):
            fn(*point)


@pytest.mark.parametrize("n", [10**5, 10**6])
@pytest.mark.parametrize("point", [REF_PARAMS, *PERTURBED])
def test_tables_nonincreasing_at_large_n(point, n):
    # simulate_policy reads the tables as monotone and rejects them otherwise.
    inst, _ = make_instance(*point, n)
    tables = compute_thresholds(inst)
    assert np.all(tables.phi[2:] <= tables.phi[1:-1])
    assert np.all(tables.phibar[2:] <= tables.phibar[1:-1])


def test_table_size_capped(monkeypatch):
    monkeypatch.setattr(dp_module, "MAX_TABLE_N", 10)
    assert compute_thresholds(_ref_instance(10)).n == 10
    with pytest.raises(ParameterError, match="MAX_TABLE_N = 10"):
        compute_thresholds(_ref_instance(11))
