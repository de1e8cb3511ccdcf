"""Independent ground truth: exhaustive history recursion and Monte Carlo.

The exhaustive oracle runs the backward induction over *value histories*
(tuples of observed values, at most one equal to the constant) instead of
the collapsed two-sequence form, at tiny sizes.  Conditional arrival law
after ``k`` observations: the next value is the constant with probability
``1/(n+1-k)`` if it is still pending (0 otherwise), else a fresh draw of
``V``.  Because every history of the same depth and pending-constant flag
feeds through identical arithmetic, the oracle's continuation values should
collapse exactly onto ``(depth, flag)`` classes; this is asserted on every
run and is the independent confirmation that the collapsed tables compute
the same program.

Monte Carlo simulators are reproducible by construction: trials are cut
into fixed batches of ``TRIALS_PER_BATCH`` and batch ``i`` of run ``seed``
draws from a counter-based Philox stream with key ``(seed, i)``, so results
do not depend on scheduling; per-batch partial sums are reduced in a fixed
order.  Both simulators share that batch loop, whose first draw in each
batch is the constant's slot per trial, and each takes a fixed number of
draws per trial, so neither's cost grows with ``n``.  The prophet simulator
takes two geometric draws per trial, the index of the first top value and,
given none, the index of the first ``b``.  The policy simulator draws the
walk's stopping slot and reward directly: the slots where the walk would
accept ``b`` lie inside those where it would accept the top value, so it
stops at the first of the top value's first success on its accepted slots,
``b``'s first success on its own, the constant's slot if the constant is
accepted there, and the final step; one exponential draw per value gives
each first success.  Both simulators take any instance with a real law
(:func:`~rostop.instance.require_law`).  Each report's step histogram is a
read-only :class:`StopHistogram` over two sorted int64 arrays, counted
densely while ``n + 2`` is at most the trial count and otherwise by one
in-place sort of the stops, so its memory is O(min(n, trials)).
"""

from __future__ import annotations

import bisect
import json
import math
import numbers
from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from dataclasses import dataclass
from typing import IO, Callable

import numpy as np

from .dp import ConsistencyError, ThresholdTables, _require_matching_tables
from .instance import InstanceParams, ParameterError, _integer, require_law

__all__ = [
    "MAX_ORACLE_SIZE",
    "TRIALS_PER_BATCH",
    "OracleSizeError",
    "HistoryValue",
    "SimulationReport",
    "StopHistogram",
    "history_values",
    "exhaustive_optimal_value",
    "simulate_policy",
    "simulate_prophet",
    "write_histogram_csv",
]

MAX_ORACLE_SIZE = 8  # the history space is O(4^n); refuse anything larger
TRIALS_PER_BATCH = 4096


class OracleSizeError(ValueError):
    """Exhaustive enumeration refused: instance too large."""


@dataclass(frozen=True)
class HistoryValue:
    """Continuation value after observing ``history`` (depth = len(history))."""

    history: tuple[float, ...]
    gamma: float
    depth: int


class StopHistogram(Mapping[int, int]):
    """Read-only map from stopping step to trial count over two int64 arrays.

    ``steps`` ascends strictly and ``counts[i]`` trials stopped at
    ``steps[i]``; both arrays are non-writeable.  It keeps 16 bytes per
    distinct stop.  Iteration, ``keys``, ``values`` and ``items`` go through
    one ``tolist()`` per array, and a lookup is one binary search.
    """

    __slots__ = ("steps", "counts")

    def __init__(self, steps: np.ndarray, counts: np.ndarray) -> None:
        steps = np.array(steps, dtype=np.int64)
        counts = np.array(counts, dtype=np.int64)
        if steps.ndim != 1 or steps.shape != counts.shape or np.any(steps[1:] <= steps[:-1]):
            raise ValueError("steps must ascend strictly, with one count per step")
        steps.flags.writeable = False
        counts.flags.writeable = False
        self.steps = steps
        self.counts = counts

    def __getitem__(self, step: int) -> int:
        if isinstance(step, numbers.Real):
            i = int(self.steps.searchsorted(step))
            if i < self.steps.size and self.steps[i] == step:
                return int(self.counts[i])
        raise KeyError(step)

    def __iter__(self) -> Iterator[int]:
        return iter(self.steps.tolist())

    def __len__(self) -> int:
        return self.steps.size

    def values(self) -> ValuesView[int]:
        return _CountsView(self)

    def items(self) -> ItemsView[int, int]:
        return _PairsView(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StopHistogram):
            return np.array_equal(self.steps, other.steps) and np.array_equal(
                self.counts, other.counts
            )
        return Mapping.__eq__(self, other)

    def __repr__(self) -> str:
        return f"StopHistogram({dict(self.items())!r})"


class _CountsView(ValuesView):
    def __iter__(self) -> Iterator[int]:
        return iter(self._mapping.counts.tolist())


class _PairsView(ItemsView):
    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self._mapping.steps.tolist(), self._mapping.counts.tolist())


@dataclass(frozen=True)
class SimulationReport:
    """Seeded Monte Carlo summary.

    ``stop_histogram`` is a read-only :class:`StopHistogram`, a
    ``Mapping[int, int]`` from step to trial count over two sorted int64
    arrays: 16 bytes per distinct stop, against about 90 for a ``dict``.
    """

    trials: int
    mean: float
    std_error: float
    stop_histogram: StopHistogram
    seed: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "trials": self.trials,
                "mean": self.mean,
                "std_error": self.std_error,
                "seed": self.seed,
                "stop_histogram": {str(k): v for k, v in self.stop_histogram.items()},
            }
        )


def write_histogram_csv(report: SimulationReport, out: IO[str]) -> None:
    out.write("step,count\n")
    out.writelines(f"{step},{count}\n" for step, count in report.stop_histogram.items())


def _continuation_table(inst: InstanceParams) -> dict[tuple[float, ...], float]:
    """Map every history to its continuation value, by recursion over the history tree.

    Each history is reached once, through its prefix, while the values ``n``,
    ``b``, ``0`` and ``a`` are distinct (on every real law); where two coincide
    it is evaluated again, to the same value.
    """
    n = inst.n
    if n > MAX_ORACLE_SIZE:
        raise OracleSizeError(f"n={n} exceeds the exhaustive limit {MAX_ORACLE_SIZE}")
    a, b = inst.a, inst.b
    nv = float(n)
    w_top, w_mid, w_zero = inst.distribution().masses
    horizon = n + 1
    table: dict[tuple[float, ...], float] = {}

    def gamma(hist: tuple[float, ...], x: float) -> float:
        # Optimal value on arrival of x after hist: accept x or continue.
        h2 = hist + (x,)
        if len(h2) == horizon:
            return x
        return max(x, continuation(h2))

    def continuation(hist: tuple[float, ...]) -> float:
        k = len(hist)
        ev = (w_top * gamma(hist, nv) + w_mid * gamma(hist, b)) + w_zero * gamma(hist, 0.0)
        if a in hist:
            val = ev
        else:
            rem = n + 1 - k  # remaining slots, exactly one of which holds the constant
            val = gamma(hist, a) / rem + (1.0 - 1.0 / rem) * ev
        table[hist] = val
        return val

    continuation(())
    return table


def _assert_collapse(table: dict[tuple[float, ...], float], a: float) -> None:
    # Continuation values must agree bit-for-bit within each (depth, flag) class.
    classes: dict[tuple[int, bool], float] = {}
    for hist, val in table.items():
        key = (len(hist), a in hist)
        ref = classes.setdefault(key, val)
        if val != ref:
            raise ConsistencyError(
                f"history collapse violated at depth {key[0]} (constant seen={key[1]}): "
                f"{val!r} != {ref!r}"
            )


def history_values(inst: InstanceParams) -> tuple[HistoryValue, ...]:
    """All continuation values, ordered by (depth, history)."""
    table = _continuation_table(inst)
    items = sorted(table.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return tuple(HistoryValue(history=h, gamma=v, depth=len(h)) for h, v in items)


def exhaustive_optimal_value(inst: InstanceParams) -> float:
    """Optimal expected reward by full history enumeration (n <= 8).

    The empty-history continuation value is exactly the expectation of the
    optimal rule over the first arrival.  Also asserts the (depth, flag)
    collapse of the history table.
    """
    table = _continuation_table(inst)
    _assert_collapse(table, inst.a)
    return table[()]


def _run_batches(
    n: int,
    trials: int,
    seed: int,
    draw: Callable[[np.random.Generator, np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> SimulationReport:
    """Run ``draw(rng, pos_a) -> (reward, stop)`` batch by batch and reduce.

    Each batch first draws the constant's slot ``pos_a`` (uniform on the
    ``n+1`` positions) for its trials, then hands its stream to ``draw``.
    ``seed`` is one Philox key word, an integer in ``[0, 2**64)``.
    """
    trials = _integer(trials, "trials")
    seed = _integer(seed, "seed")
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed must be in [0, 2**64), got {seed}")
    sums: list[float] = []
    sumsqs: list[float] = []
    # A dense step histogram while it is no larger than the trial count,
    # else the stops themselves, counted once: memory O(min(n, trials)).
    hist = np.zeros(n + 2, dtype=np.int64) if n + 2 <= trials else None
    stops = np.empty(trials, dtype=np.int64) if hist is None else None
    n_batches = (trials + TRIALS_PER_BATCH - 1) // TRIALS_PER_BATCH
    for batch in range(n_batches):
        lo = batch * TRIALS_PER_BATCH
        m = min(TRIALS_PER_BATCH, trials - lo)
        # Stream-splitting rule: batch i of run `seed` uses Philox key (seed, i).
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, batch], np.uint64)))
        pos_a = rng.integers(1, n + 2, size=m, dtype=np.int64)
        reward, stop = draw(rng, pos_a)
        sums.append(float(reward.sum()))
        sumsqs.append(float(np.square(reward).sum()))
        if hist is None:
            stops[lo:lo + m] = stop
        else:
            np.add.at(hist, stop, 1)

    total = float(np.sum(np.asarray(sums)))
    total_sq = float(np.sum(np.asarray(sumsqs)))
    mean = total / trials
    if trials > 1:
        var = max(total_sq - trials * mean * mean, 0.0) / (trials - 1)
        std_error = math.sqrt(var / trials)
    else:
        std_error = 0.0
    if hist is None:
        # one sort in place, then the start and length of each run of equal stops
        stops.sort()
        first = np.empty(trials, dtype=bool)
        first[0] = True
        np.not_equal(stops[1:], stops[:-1], out=first[1:])
        counts = np.flatnonzero(first)  # each run's start, then its length
        steps = stops[counts]
        np.subtract(counts[1:], counts[:-1], out=counts[:-1])
        counts[-1] = trials - counts[-1]
    else:
        steps = np.flatnonzero(hist)
        counts = hist[steps]
    return SimulationReport(
        trials=trials,
        mean=mean,
        std_error=std_error,
        stop_histogram=StopHistogram(steps, counts),
        seed=seed,
    )


def _top_and_mid(inst: InstanceParams) -> tuple[float, float]:
    """The top value's mass, and ``b``'s conditional mass given no top value.

    The second is capped at 1: on a law without a zero atom the rounded
    quotient can exceed 1 by an ulp (at ``p = 2.666666666666667``, ``n = 3``).
    """
    w_top, w_mid, _ = inst.distribution().masses
    return w_top, min(w_mid / (1.0 - w_top), 1.0)


def _first_success(
    rng: np.random.Generator, pos_a: np.ndarray, q: float, acc_before: int, acc_after: int
) -> np.ndarray:
    """Per trial, the first accepted slot whose draw succeeds, or a slot past ``n+1``.

    With the constant at slot ``P`` the accepted slots are ``[acc_before, P)``
    and ``[max(acc_after, P+1), n+1]``.  Each succeeds with probability ``q``,
    so the number of failures before the first success is
    ``floor(E / -log1p(-q))`` for one standard exponential ``E``, laid onto
    the two intervals in order.
    """
    with np.errstate(divide="ignore"):  # q = 1 (no zero atom): 0 failures; q = 0: never
        fails = np.floor(rng.standard_exponential(pos_a.size) / -np.log1p(-q))
    before = np.maximum(pos_a - acc_before, 0)
    after_start = np.maximum(acc_after, pos_a + 1)
    return np.where(fails < before, acc_before + fails, after_start + (fails - before))


def _sorted_crossing(table: np.ndarray, value: float) -> int:
    # dp._first_crossing on a table nonincreasing on [1, n]: the flags
    # "table[k] <= value" rise once there, so bisect for the first one.
    return bisect.bisect_left(table, True, 1, table.size, key=lambda t: t <= value)


def simulate_policy(
    inst: InstanceParams, tables: ThresholdTables, trials: int, seed: int
) -> SimulationReport:
    """Simulate the threshold rule defined by ``tables``.

    Per trial: the constant's slot ``P`` is uniform on the ``n+1``
    positions, the other slots hold iid draws of ``V`` in order, and the
    walk accepts the first value at least as large as the applicable future
    reward (``phibar`` strictly before ``P``, ``phi`` after it, the constant
    itself against ``phi`` at ``P``); whatever arrives at step ``n+1`` is
    accepted.  Tables must be built for ``inst.n``, positive and
    nonincreasing in ``k`` (``+inf`` entries are allowed and model "never
    accept before the end").  So each value is accepted on a before-``P``
    and an after-``P`` run of slots, ``b``'s inside the top value's, and
    zero only at ``n+1``.  The stopping slot is the earliest of: the first
    top value on its slots (probability ``w_top`` each), the first ``b`` on
    its slots (probability ``w_mid / (1 - w_top)`` each, given no top value
    there; a tie goes to the top value), ``P`` if the constant is accepted
    there, and ``n+1``, where a zero is collected.  This is the walk's law,
    drawn with two exponentials per trial.
    """
    require_law(inst)
    _require_matching_tables(inst, tables)
    n = inst.n
    for table in (tables.phi, tables.phibar):
        # nonincreasing with table[n] > 0 is positive throughout; a NaN fails one test
        if not np.all(table[2:] <= table[1:-1]):
            raise ValueError("future-reward tables must be nonincreasing in k")
        if not table[n] > 0.0:
            raise ValueError("future-reward tables must be positive")
    a, b = inst.a, inst.b
    w_top, p_mid = _top_and_mid(inst)
    # First step from which each support value is accepted, before/after the
    # constant's slot; the tables are monotone, so "value >= table[k]" is
    # exactly "k >= first crossing", and b's accepted slots lie inside n's.
    acc_top = _sorted_crossing(tables.phibar, n), _sorted_crossing(tables.phi, n)
    acc_b = _sorted_crossing(tables.phibar, b), _sorted_crossing(tables.phi, b)
    acc_a = _sorted_crossing(tables.phi, a)

    def draw(rng: np.random.Generator, pos_a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = _first_success(rng, pos_a, w_top, *acc_top)
        m = _first_success(rng, pos_a, p_mid, *acc_b)
        stop = np.minimum(np.minimum(t, m), np.where(pos_a >= acc_a, pos_a, n + 1))
        reward = np.where(t == stop, float(n), np.where(m == stop, b, np.where(pos_a == stop, a, 0.0)))
        return reward, stop.astype(np.int64)

    return _run_batches(n, trials, seed, draw)


def simulate_prophet(inst: InstanceParams, trials: int, seed: int) -> SimulationReport:
    """Mean of the maximum over freshly sampled instance realisations.

    Two geometric draws per trial replace the ``n`` values of ``V``: the
    index of the first top value ``n`` is ``Geometric(w_top)``, and, given
    no top value among the ``n`` draws, each draw is ``b`` with probability
    ``w_mid / (1 - w_top)``, so the index of the first ``b`` is geometric
    with that parameter.  The maximum is ``n`` if the first is at most
    ``n``, else ``b`` if the second is, else the constant ``a``.  The
    recorded step is the arrival slot of the first occurrence of the
    maximum.
    """
    require_law(inst)
    n = inst.n
    a, b = inst.a, inst.b
    nv = float(n)
    w_top, p_mid = _top_and_mid(inst)

    def draw(rng: np.random.Generator, pos_a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        first_top = rng.geometric(w_top, size=pos_a.size)
        if p_mid > 0.0:
            first_mid = rng.geometric(p_mid, size=pos_a.size)
        else:  # b is never drawn: no draw is taken for it
            first_mid = np.full(pos_a.size, n + 1, dtype=np.int64)
        top = first_top <= n
        mid = first_mid <= n  # decides only where top is False
        reward = np.where(top, nv, np.where(mid, b, a))
        j = np.where(top, first_top, first_mid)
        stop = np.where(top | mid, j + (j >= pos_a), pos_a)
        return reward, stop

    return _run_batches(n, trials, seed, draw)
