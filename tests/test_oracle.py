import io
import itertools
import json
import math
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest

from rostop import dp as dp_module
from rostop import oracle
from rostop import (
    InfeasibleInstanceError,
    InstanceParams,
    OracleSizeError,
    ParameterError,
    ThresholdTables,
    compute_thresholds,
    exhaustive_optimal_value,
    history_values,
    make_instance,
    optimal_value,
    prophet_exact,
    simulate_policy,
    simulate_prophet,
)

from conftest import REF_PARAMS, PERTURBED
from test_dp import _backward_loop


def test_n1_six_case_hand_enumeration():
    # Two arrivals in random order: the constant and one draw of V. The draw
    # uses the formal signed weights (the mass vector cannot be a pmf at
    # n=1), and the recursion values are still well defined.  The pass
    # refuses such weights; the reference loop takes them.
    inst = InstanceParams(*REF_PARAMS, 1)
    dist = inst.distribution()
    a = inst.a
    ev = sum(m * v for m, v in zip(dist.masses, dist.support))
    e_max_va = sum(m * max(v, a) for m, v in zip(dist.masses, dist.support))
    hand = 0.5 * max(a, ev) + 0.5 * e_max_va
    assert exhaustive_optimal_value(inst) == pytest.approx(hand, abs=1e-14)
    assert _backward_loop(inst)[1][0] == pytest.approx(hand, abs=1e-14)
    with pytest.raises(InfeasibleInstanceError, match="pmf"):
        compute_thresholds(inst)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_exhaustive_matches_collapsed_dp(n):
    inst = InstanceParams(*REF_PARAMS, n)
    if n == 1:  # formal weights: the pass refuses them, the reference loop takes them
        with pytest.raises(InfeasibleInstanceError, match="pmf"):
            compute_thresholds(inst)
        dp_value = _backward_loop(inst)[1][0]
    else:
        dp_value = optimal_value(inst, compute_thresholds(inst))
    assert abs(exhaustive_optimal_value(inst) - dp_value) <= 1e-12


def test_exhaustive_matches_dp_at_perturbed_points():
    for a, b, p in PERTURBED:
        for n in (2, 4, 5):
            inst, _ = make_instance(a, b, p, n)
            dp_value = optimal_value(inst, compute_thresholds(inst))
            assert abs(exhaustive_optimal_value(inst) - dp_value) <= 1e-12


def test_history_collapse_is_exact_and_matches_tables():
    n = 5
    inst, _ = make_instance(*REF_PARAMS, n)
    tables = compute_thresholds(inst)
    values = history_values(inst)
    classes = {}
    for hv in values:
        key = (hv.depth, inst.a in hv.history)
        classes.setdefault(key, set()).add(hv.gamma)
    # bit-exact collapse within each (depth, constant-seen) class
    assert all(len(vals) == 1 for vals in classes.values())
    # depth-n continuation values are the terminal expectations
    assert classes[(n, True)] == {(1.0 + inst.b * inst.p) / n}
    assert classes[(n, False)] == {inst.a}
    # and every class value agrees with the collapsed tables, depth 0
    # (the optimal value) included
    for (depth, seen), vals in classes.items():
        table = tables.phi if seen else tables.phibar
        assert abs(next(iter(vals)) - table[depth]) <= 1e-12


def test_history_structure():
    inst, _ = make_instance(*REF_PARAMS, 4)
    values = history_values(inst)
    support = {0.0, inst.b, float(inst.n), inst.a}
    for hv in values:
        assert hv.depth == len(hv.history) <= inst.n
        assert set(hv.history) <= support
        assert sum(1 for x in hv.history if x == inst.a) <= 1
        assert hv.gamma >= 0.0


def test_exhaustive_size_guard():
    inst, _ = make_instance(*REF_PARAMS, 9)
    with pytest.raises(OracleSizeError):
        exhaustive_optimal_value(inst)


def _walk_reward(inst, tables, pos_a, vseq):
    # Literal step-by-step walk, used as the reference semantics: the reward
    # and the slot it is taken at.
    n = inst.n
    for s in range(1, n + 2):
        if s == pos_a:
            x, threshold = inst.a, tables.phi[s] if s <= n else None
        else:
            j = s - (1 if s > pos_a else 0)
            x = vseq[j - 1]
            threshold = (tables.phi[s] if s > pos_a else tables.phibar[s]) if s <= n else None
        if s == n + 1 or x >= threshold:
            return x, s
    raise AssertionError("walk must stop by the final step")


def test_simulation_matches_exact_walk_enumeration():
    # n=3 is fully enumerable: 4 constant positions x 27 value sequences.
    inst, dist = make_instance(*REF_PARAMS, 3)
    tables = compute_thresholds(inst)
    n = inst.n
    exact = 0.0
    for pos_a in range(1, n + 2):
        for combo in itertools.product(range(3), repeat=n):
            prob = math.prod(dist.masses[i] for i in combo) / (n + 1)
            vseq = tuple(dist.support[i] for i in combo)
            exact += prob * _walk_reward(inst, tables, pos_a, vseq)[0]
    # the threshold walk achieves the program value
    assert exact == pytest.approx(optimal_value(inst, tables), abs=1e-12)
    report = simulate_policy(inst, tables, trials=400_000, seed=20240811)
    assert abs(report.mean - exact) <= 4.0 * report.std_error


def _hand_tables(phi, phibar):
    return ThresholdTables(n=len(phi), phi=np.array([np.nan, *phi]), phibar=np.array([np.nan, *phibar]))


@pytest.mark.parametrize(
    "params, hand",
    [
        ((*REF_PARAMS, 3), None),  # the computed tables
        # top refused at slot 1 on both sides, b from slot 3, a only at n+1
        ((*REF_PARAMS, 3), ((4.0, 2.0, 0.95), (np.inf, 2.5, 1.0))),
        # after the constant nothing but the final slot; before it top from slot 3
        ((*REF_PARAMS, 3), ((np.inf, np.inf, 5.0), (7.0, 7.0, 3.0))),
        # no zero atom: p/n + 1/n^2 = 1, so every draw is b or the top value
        ((0.5, 1.2, 1.5, 2), None),
    ],
    ids=["computed", "top-refused-early", "final-slot-after", "no-zero-atom"],
)
def test_policy_stop_law_matches_exact_enumeration(params, hand, monkeypatch):
    # (n+1) constant positions x 3^n value sequences give the exact law of
    # (reward, stop slot) under the step-by-step walk.
    inst, dist = make_instance(*params)
    tables = compute_thresholds(inst) if hand is None else _hand_tables(*hand)
    n = inst.n
    law: dict[tuple[float, int], float] = {}
    for pos_a in range(1, n + 2):
        for combo in itertools.product(range(3), repeat=n):
            prob = math.prod(dist.masses[i] for i in combo) / (n + 1)
            cell = _walk_reward(inst, tables, pos_a, tuple(dist.support[i] for i in combo))
            law[cell] = law.get(cell, 0.0) + prob
    if hand is not None:
        assert min(s for (x, s) in law if x == float(n)) > 1  # top refused early
        assert {s for (x, s) in law if x == inst.a} == {n + 1}  # a only at the end
    draws = []

    def recording_batches(n, trials, seed, draw):
        def recorded(rng, pos_a):
            draws.append(draw(rng, pos_a))
            return draws[-1]

        return run_batches(n, trials, seed, recorded)

    run_batches = oracle._run_batches
    monkeypatch.setattr(oracle, "_run_batches", recording_batches)
    trials = 400_000
    report = simulate_policy(inst, tables, trials=trials, seed=20240813)
    rewards = np.concatenate([r for r, _ in draws])
    stops = np.concatenate([s for _, s in draws])
    assert report.mean == pytest.approx(rewards.mean(), rel=1e-12)
    exact = sum(x * prob for (x, _), prob in law.items())
    assert abs(report.mean - exact) <= 4.0 * report.std_error
    observed = {(x, s): np.count_nonzero((rewards == x) & (stops == s)) for x, s in law}
    assert sum(observed.values()) == trials  # no trial outside the walk's cells
    for cell, prob in law.items():
        sigma = math.sqrt(prob * (1.0 - prob) / trials)
        assert abs(observed[cell] / trials - prob) <= 4.0 * sigma, cell


def test_policy_at_a_large_p_law_agrees_with_optimal_value():
    # p = 700: the non-zero draws are dense and the walk of one step per
    # rejected draw took seconds; the first-success draws take milliseconds.
    inst, _ = make_instance(0.5, 1.001, 700, 10_000)
    tables = compute_thresholds(inst)
    report = simulate_policy(inst, tables, trials=100_000, seed=23)
    assert abs(report.mean - optimal_value(inst, tables)) <= 4.0 * report.std_error


def test_simulation_reports_are_reproducible():
    inst, _ = make_instance(*REF_PARAMS, 200)
    tables = compute_thresholds(inst)
    r1 = simulate_policy(inst, tables, trials=30_000, seed=99)
    r2 = simulate_policy(inst, tables, trials=30_000, seed=99)
    assert r1 == r2
    assert r1 != simulate_policy(inst, tables, trials=30_000, seed=100)
    p1 = simulate_prophet(inst, trials=30_000, seed=99)
    p2 = simulate_prophet(inst, trials=30_000, seed=99)
    assert p1 == p2


def test_single_trial_policy_reward_support():
    inst, _ = make_instance(*REF_PARAMS, 50)
    tables = compute_thresholds(inst)
    support = {0.0, inst.a, inst.b, float(inst.n)}
    for seed in range(5):
        report = simulate_policy(inst, tables, trials=1, seed=seed)
        assert report.mean in support
        assert report.std_error == 0.0
        assert sum(report.stop_histogram.values()) == 1


def test_histogram_sums_to_trials_and_steps_in_range():
    inst, _ = make_instance(*REF_PARAMS, 100)
    tables = compute_thresholds(inst)
    report = simulate_policy(inst, tables, trials=50_000, seed=3)
    assert sum(report.stop_histogram.values()) == 50_000
    assert all(1 <= step <= 101 for step in report.stop_histogram)


def test_early_steps_stop_only_on_top_value(ref_dp):
    # Before the first acceptance step of b, only the size-n value stops the
    # walk; its rate there is ~1e-6 per trial, so observed counts must stay
    # at single digits while a threshold bug would add O(100) b-stops.
    inst, tables, times = ref_dp.get(1000)
    assert times.k_n >= 3
    report = simulate_policy(inst, tables, trials=200_000, seed=7)
    early = sum(cnt for step, cnt in report.stop_histogram.items() if step < times.k_n)
    assert early <= 20


def test_degenerate_thresholds_collect_final_arrival():
    inst, dist = make_instance(*REF_PARAMS, 100)
    n = inst.n
    arr = np.full(n + 1, np.inf)
    arr[0] = np.nan
    arr.flags.writeable = False
    tables = ThresholdTables(n=n, phi=arr, phibar=arr)
    report = simulate_policy(inst, tables, trials=400_000, seed=11)
    e_last = (inst.a + n * dist.mean) / (n + 1)
    assert abs(report.mean - e_last) <= 4.0 * report.std_error
    assert set(report.stop_histogram) == {n + 1}


@pytest.mark.parametrize("seed", [1.7, True, np.bool_(True), "3", -1, 2**64, 2**64 + 1])
def test_simulators_reject_a_seed_outside_the_key_range(seed):
    # 1.7, True and "3" ran as 1, 1 and 3, and -1 and 2**64 + 1 drew the
    # streams of 2**64 - 1 and 1 while reporting another seed.
    inst, _ = make_instance(*REF_PARAMS, 20)
    tables = compute_thresholds(inst)
    with pytest.raises(ParameterError, match="seed must be"):
        simulate_policy(inst, tables, trials=10, seed=seed)
    with pytest.raises(ParameterError, match="seed must be"):
        simulate_prophet(inst, trials=10, seed=seed)


@pytest.mark.parametrize("trials", [True, 10.0, "10", 0, -3])
def test_simulators_reject_non_integer_or_non_positive_trials(trials):
    inst, _ = make_instance(*REF_PARAMS, 20)
    tables = compute_thresholds(inst)
    with pytest.raises(ParameterError, match="trials must be"):
        simulate_policy(inst, tables, trials=trials, seed=1)
    with pytest.raises(ParameterError, match="trials must be"):
        simulate_prophet(inst, trials=trials, seed=1)


def test_seed_range_ends_and_numpy_integers_accepted():
    inst, _ = make_instance(*REF_PARAMS, 20)
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        report = simulate_prophet(inst, trials=np.int64(10), seed=seed)
        assert type(report.seed) is int and report.seed == int(seed)
        assert type(report.trials) is int and report.trials == 10
    assert report == simulate_prophet(inst, trials=10, seed=2**64 - 1)
    assert report != simulate_prophet(inst, trials=10, seed=0)


def test_simulation_input_validation():
    inst, _ = make_instance(*REF_PARAMS, 20)
    tables = compute_thresholds(inst)
    with pytest.raises(ValueError):
        simulate_prophet(InstanceParams(*REF_PARAMS, 1), trials=10, seed=1)
    bad = np.zeros(21)
    bad_tables = ThresholdTables(n=20, phi=bad, phibar=bad)
    with pytest.raises(ValueError):
        simulate_policy(inst, bad_tables, trials=10, seed=1)


def test_simulators_take_a_real_law_that_fails_only_log():
    # The family's minimum fails only `log`, an asymptotic condition; its
    # masses form a pmf, so both simulators sample it.
    inst, _ = make_instance(0.8203641079, 1.3304364620, 0.3716856858, 1000)
    tables = compute_thresholds(inst)
    policy = simulate_policy(inst, tables, trials=200_000, seed=7)
    assert abs(policy.mean - optimal_value(inst, tables)) <= 4.0 * policy.std_error
    prophet = simulate_prophet(inst, trials=200_000, seed=7)
    assert abs(prophet.mean - prophet_exact(inst)) <= 4.0 * prophet.std_error


@pytest.mark.parametrize(
    "params, error",
    [
        ((*REF_PARAMS, 1), InfeasibleInstanceError),  # negative zero mass
        ((0.789, 2.5, 0.421, 2), ParameterError),  # b >= n
    ],
)
def test_simulators_refuse_an_unreal_law(params, error):
    inst = InstanceParams(*params)
    ones = np.ones(inst.n + 1)
    tables = ThresholdTables(n=inst.n, phi=ones, phibar=ones)  # the pass refuses the law
    with pytest.raises(error):
        simulate_policy(inst, tables, trials=10, seed=1)
    with pytest.raises(error):
        simulate_prophet(inst, trials=10, seed=1)


def test_policy_rejects_non_monotone_tables():
    # The walk replaces "value >= table[k]" by "k >= first crossing", which
    # is only the same rule when the tables are nonincreasing in k.
    inst, _ = make_instance(*REF_PARAMS, 20)
    tables = compute_thresholds(inst)
    rising = np.concatenate(([np.nan], np.linspace(0.5, 2.0, 20)))
    with pytest.raises(ValueError, match="nonincreasing"):
        simulate_policy(inst, ThresholdTables(n=20, phi=rising, phibar=tables.phibar), 10, 1)
    with pytest.raises(ValueError, match="nonincreasing"):
        simulate_policy(inst, ThresholdTables(n=20, phi=tables.phi, phibar=rising), 10, 1)


def test_prophet_stop_law_matches_exact_enumeration():
    # n=3: 4 constant positions x 27 value sequences give the exact law of
    # the maximum and of the slot of its first occurrence.
    inst, dist = make_instance(*REF_PARAMS, 3)
    n = inst.n
    slot_law = dict.fromkeys(range(1, n + 2), 0.0)
    exact = 0.0
    for pos_a in range(1, n + 2):
        for combo in itertools.product(range(3), repeat=n):
            prob = math.prod(dist.masses[i] for i in combo) / (n + 1)
            seq = [dist.support[i] for i in combo]
            seq.insert(pos_a - 1, inst.a)
            best = max(seq)
            slot_law[seq.index(best) + 1] += prob
            exact += prob * best
    assert exact == pytest.approx(prophet_exact(inst), abs=1e-12)
    trials = 400_000
    report = simulate_prophet(inst, trials=trials, seed=20240812)
    assert abs(report.mean - exact) <= 4.0 * report.std_error
    assert set(report.stop_histogram) <= set(slot_law)
    for slot, prob in slot_law.items():
        sigma = math.sqrt(prob * (1.0 - prob) / trials)
        assert abs(report.stop_histogram.get(slot, 0) / trials - prob) <= 4.0 * sigma


def test_prophet_histogram_memory_follows_the_trial_count():
    # A dense step histogram at n = 10^7 would take 77 MiB for 10 trials.
    inst, _ = make_instance(*REF_PARAMS, 10**7)
    tracemalloc.start()
    try:
        report = simulate_prophet(inst, trials=10, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert sum(report.stop_histogram.values()) == 10


def test_sparse_stop_count_copies_only_steps_and_counts():
    # The stops go into one int64 array of the trial count, sorted in place;
    # beyond it the count holds a one-byte run mask and, per distinct stop,
    # the steps and counts and the report's own copies of them.  Collecting
    # the batches in a list and concatenating them took 0.8 MB more here.
    inst, _ = make_instance(*REF_PARAMS, 10**7)
    trials = 50_000
    simulate_prophet(inst, trials=10, seed=1)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        report = simulate_prophet(inst, trials=trials, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    distinct = len(report.stop_histogram)
    assert distinct > 40_000
    assert peak < 9 * trials + 32 * distinct + 2**18, (peak, distinct)


def test_policy_crossings_bisect_to_the_scan():
    # On tables nonincreasing on [1, n], with ties and +inf entries, the
    # bisection finds dp's first crossing at every value, ties included.
    rng = np.random.default_rng(12)
    for n in range(1, 40):
        for tail in (
            -np.sort(-rng.uniform(0.0, 3.0, n)),
            np.sort(rng.choice([0.5, 1.24, 2.0, 3.0, np.inf], n))[::-1],
        ):
            table = np.concatenate(([np.nan], tail))
            for value in (*tail.tolist(), 0.0, 1.0, 2.5, float(n), np.inf):
                assert oracle._sorted_crossing(table, value) == dp_module._first_crossing(
                    table, value
                ), (table, value)


def test_prophet_simulation_agrees_with_exact_value():
    inst, _ = make_instance(*REF_PARAMS, 200)
    report = simulate_prophet(inst, trials=100_000, seed=5)
    assert abs(report.mean - prophet_exact(inst)) <= 4.0 * report.std_error
    assert sum(report.stop_histogram.values()) == report.trials
    assert all(1 <= s <= 201 for s in report.stop_histogram)


def test_single_trial_prophet_never_zero():
    inst, _ = make_instance(*REF_PARAMS, 50)
    values = {inst.a, inst.b, float(inst.n)}
    for seed in range(6):
        report = simulate_prophet(inst, trials=1, seed=seed)
        assert report.mean in values


def test_standard_error_scaling():
    inst, _ = make_instance(*REF_PARAMS, 100)
    scaled = []
    for trials in (10**4, 10**5, 10**6):
        report = simulate_prophet(inst, trials=trials, seed=2024)
        scaled.append(report.std_error * math.sqrt(trials))
    ref = scaled[-1]
    assert all(abs(s - ref) / ref <= 0.2 for s in scaled)


def test_report_json_schema():
    import json

    inst, _ = make_instance(*REF_PARAMS, 30)
    tables = compute_thresholds(inst)
    report = simulate_policy(inst, tables, trials=100, seed=0)
    payload = json.loads(report.to_json())
    assert set(payload) == {"trials", "mean", "std_error", "seed", "stop_histogram"}
    assert sum(payload["stop_histogram"].values()) == 100


def _recorded_stops(monkeypatch) -> list:
    # Keep every batch's stops, so that a test can count them its own way.
    stops = []
    run = oracle._run_batches

    def recording_run(n, trials, seed, draw):
        def recorded(rng, pos_a):
            reward, stop = draw(rng, pos_a)
            stops.append(stop)
            return reward, stop

        return run(n, trials, seed, recorded)

    monkeypatch.setattr(oracle, "_run_batches", recording_run)
    return stops


@pytest.mark.parametrize("n", [10, 10**3, 10**6])  # dense, dense, sparse count
@pytest.mark.parametrize("kind", ["policy", "prophet"])
def test_report_bytes_equal_a_dict_histogram_reference(n, kind, monkeypatch):
    inst, _ = make_instance(*REF_PARAMS, n)
    stops = _recorded_stops(monkeypatch)
    if kind == "policy":
        report = simulate_policy(inst, compute_thresholds(inst), trials=10_000, seed=7)
    else:
        report = simulate_prophet(inst, trials=10_000, seed=7)
    counted: dict[int, int] = {}
    for step in np.concatenate(stops).tolist():
        counted[step] = counted.get(step, 0) + 1
    rows = sorted(counted.items())
    payload = {
        "trials": report.trials,
        "mean": report.mean,
        "std_error": report.std_error,
        "seed": report.seed,
        "stop_histogram": {str(k): v for k, v in rows},
    }
    assert report.to_json() == json.dumps(payload)
    out = io.StringIO()
    oracle.write_histogram_csv(report, out)
    assert out.getvalue() == "step,count\n" + "".join(f"{k},{v}\n" for k, v in rows)
    assert report.stop_histogram == counted


def test_stop_histogram_is_a_read_only_mapping():
    inst, _ = make_instance(*REF_PARAMS, 1000)
    tables = compute_thresholds(inst)
    report = simulate_policy(inst, tables, trials=20_000, seed=3)
    hist = report.stop_histogram
    assert isinstance(hist, Mapping) and not isinstance(hist, dict)
    steps = list(hist)
    assert len(hist) == len(steps) == hist.steps.size
    assert all(s < t for s, t in zip(steps, steps[1:]))
    assert list(hist.keys()) == steps
    assert list(hist.values()) == [hist[s] for s in steps]
    assert list(hist.items()) == list(zip(steps, hist.values()))
    assert all(type(s) is int for s in steps) and all(type(c) is int for c in hist.values())
    assert sum(hist.values()) == 20_000
    first = steps[0]
    assert hist.get(first) == hist[first] > 0 and first in hist
    assert hist.get(0) is None and hist.get(inst.n + 2, 0) == 0
    for missing in (0, -1, inst.n + 2, str(first), first + 0.5, None):
        assert missing not in hist
        with pytest.raises(KeyError):
            hist[missing]
    as_dict = dict(hist.items())
    assert hist == simulate_policy(inst, tables, trials=20_000, seed=3).stop_histogram
    assert hist == as_dict and as_dict == hist
    assert hist != {**as_dict, first: as_dict[first] + 1}
    assert hist != simulate_policy(inst, tables, trials=20_000, seed=4).stop_histogram
    assert hist != list(as_dict.items())
    for array in (hist.steps, hist.counts):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            array += 1


def test_stop_histogram_rejects_unsorted_or_unpaired_arrays():
    with pytest.raises(ValueError, match="ascend"):
        oracle.StopHistogram(np.array([2, 1]), np.array([1, 1]))
    with pytest.raises(ValueError, match="ascend"):
        oracle.StopHistogram(np.array([1, 1]), np.array([1, 1]))
    with pytest.raises(ValueError, match="one count per step"):
        oracle.StopHistogram(np.array([1, 2]), np.array([1]))


def test_prophet_report_memory_per_distinct_stop():
    # A dict histogram retained about 88 bytes per distinct stop here; the
    # two int64 arrays take 16.
    inst, _ = make_instance(*REF_PARAMS, 10**7)
    simulate_prophet(inst, trials=10, seed=1)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = simulate_prophet(inst, trials=100_000, seed=1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(report.stop_histogram) > 90_000
    assert retained < 40 * len(report.stop_histogram)


def test_prophet_takes_a_law_whose_b_mass_underflows():
    # p / n = 5e-324 / 2 rounds to 0: b is never drawn, and the law passes.
    inst, dist = make_instance(0.5, 1.2, 5e-324, 2)
    assert dist.masses == (0.25, 0.0, 0.75)
    report = simulate_prophet(inst, trials=100_000, seed=9)
    assert abs(report.mean - prophet_exact(inst)) <= 4.0 * report.std_error
    assert set(report.stop_histogram) <= {1, 2, 3}


def test_simulators_take_a_law_whose_conditional_b_mass_rounds_above_one():
    # No zero atom: p / n + 1 / n^2 <= 1 passes the law, but
    # w_mid / (1 - w_top) rounds to 1 + 2^-52 at n = 3.
    inst, dist = make_instance(0.5, 1.2, 2.666666666666667, 3)
    w_top, w_mid, _ = dist.masses
    assert w_mid / (1.0 - w_top) > 1.0
    tables = compute_thresholds(inst)
    policy = simulate_policy(inst, tables, trials=100_000, seed=9)
    assert abs(policy.mean - optimal_value(inst, tables)) <= 4.0 * policy.std_error
    prophet = simulate_prophet(inst, trials=100_000, seed=9)
    assert abs(prophet.mean - prophet_exact(inst)) <= 4.0 * prophet.std_error
    for report in (policy, prophet):
        assert set(report.stop_histogram) <= {1, 2, 3, 4}
