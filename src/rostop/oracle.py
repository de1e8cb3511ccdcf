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
batch is the constant's slot per trial.  The prophet simulator then takes
two geometric draws per trial, the index of the first top value and, given
none, the index of the first ``b``, so its cost does not grow with ``n``.
The policy simulator walks each trial forward and accepts the first
value at least as large as the applicable future reward (``>=``, matching
the collapsed tables).  Zero values are never accepted before the forced
final step (future rewards are positive), so the walk advances by jumping
between non-zero draws with geometric strides; the visited decisions are
exactly those of the step-by-step walk.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Callable

import numpy as np

from .asymptotics import ConsistencyError
from .dp import ThresholdTables, _require_matching_tables, _sorted_crossing
from .instance import InstanceParams

__all__ = [
    "MAX_ORACLE_SIZE",
    "TRIALS_PER_BATCH",
    "OracleSizeError",
    "HistoryValue",
    "SimulationReport",
    "history_values",
    "exhaustive_optimal_value",
    "simulate_policy",
    "simulate_prophet",
    "write_histogram_csv",
]

MAX_ORACLE_SIZE = 8  # the history space is O(4^n); refuse anything larger
TRIALS_PER_BATCH = 4096
_NEVER = np.iinfo(np.int64).max  # sentinel slot meaning "does not happen"


class OracleSizeError(ValueError):
    """Exhaustive enumeration refused: instance too large."""


@dataclass(frozen=True)
class HistoryValue:
    """Continuation value after observing ``history`` (depth = len(history))."""

    history: tuple[float, ...]
    gamma: float
    depth: int


@dataclass(frozen=True)
class SimulationReport:
    """Seeded Monte Carlo summary; ``stop_histogram`` maps step to trial count."""

    trials: int
    mean: float
    std_error: float
    stop_histogram: dict[int, int]
    seed: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "trials": self.trials,
                "mean": self.mean,
                "std_error": self.std_error,
                "seed": self.seed,
                "stop_histogram": {str(k): v for k, v in sorted(self.stop_histogram.items())},
            }
        )


def write_histogram_csv(report: SimulationReport, out: IO[str]) -> None:
    out.write("step,count\n")
    for step, count in sorted(report.stop_histogram.items()):
        out.write(f"{step},{count}\n")


def _continuation_table(inst: InstanceParams) -> dict[tuple[float, ...], float]:
    """Map every history to its continuation value, by recursion over the history tree.

    Each history is reached once, through its prefix, while the values ``n``,
    ``b``, ``0`` and ``a`` are distinct (on every checked instance); where two
    coincide it is evaluated again, to the same value.
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


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    # Stream-splitting rule: batch i of run `seed` uses Philox key (seed, i).
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, batch_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _run_batches(
    n: int,
    trials: int,
    seed: int,
    draw: Callable[[np.random.Generator, np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> SimulationReport:
    """Run ``draw(rng, pos_a) -> (reward, stop)`` batch by batch and reduce.

    Each batch first draws the constant's slot ``pos_a`` (uniform on the
    ``n+1`` positions) for its trials, then hands its stream to ``draw``.
    """
    seed = int(seed)
    sums: list[float] = []
    sumsqs: list[float] = []
    hist = np.zeros(n + 2, dtype=np.int64)
    n_batches = (trials + TRIALS_PER_BATCH - 1) // TRIALS_PER_BATCH
    for batch in range(n_batches):
        m = min(TRIALS_PER_BATCH, trials - batch * TRIALS_PER_BATCH)
        rng = _batch_rng(seed, batch)
        pos_a = rng.integers(1, n + 2, size=m, dtype=np.int64)
        reward, stop = draw(rng, pos_a)
        sums.append(float(reward.sum()))
        sumsqs.append(float(np.square(reward).sum()))
        np.add.at(hist, stop, 1)

    total = float(np.sum(np.asarray(sums)))
    total_sq = float(np.sum(np.asarray(sumsqs)))
    mean = total / trials
    if trials > 1:
        var = max(total_sq - trials * mean * mean, 0.0) / (trials - 1)
        std_error = math.sqrt(var / trials)
    else:
        std_error = 0.0
    steps = np.flatnonzero(hist)
    histogram = dict(zip(steps.tolist(), hist[steps].tolist()))
    return SimulationReport(
        trials=trials, mean=mean, std_error=std_error, stop_histogram=histogram, seed=seed
    )


def _require_simulatable(inst: InstanceParams, trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not inst.validated:
        raise ValueError("simulation needs a validated instance (real probabilities)")


def simulate_policy(
    inst: InstanceParams, tables: ThresholdTables, trials: int, seed: int
) -> SimulationReport:
    """Simulate the threshold rule defined by ``tables``.

    Per trial: the constant's slot is uniform on the ``n+1`` positions, the
    other slots hold iid draws of ``V`` in order, and the walk accepts the
    first value at least as large as the applicable future reward
    (``phibar`` strictly before the constant's slot, ``phi`` after it, the
    constant itself against ``phi`` at its own slot); whatever arrives at
    step ``n+1`` is accepted.  Tables must be built for ``inst.n``, positive
    and nonincreasing in ``k`` (``+inf`` entries are allowed and model
    "never accept before the end").
    """
    _require_simulatable(inst, trials)
    _require_matching_tables(inst, tables)
    n = inst.n
    for table in (tables.phi, tables.phibar):
        if not np.all(table[1:] > 0.0):
            raise ValueError("future-reward tables must be positive")
        if not np.all(table[2:] <= table[1:-1]):
            raise ValueError("future-reward tables must be nonincreasing in k")
    a, b = inst.a, inst.b
    nv = float(n)
    w_top, w_mid, w_zero = inst.distribution().masses
    q_nz = w_top + w_mid  # per-draw probability of a non-zero value
    top_frac = w_top / q_nz

    # First step from which each support value is accepted, before/after the
    # constant's slot; the walk only needs these because the tables are
    # monotone, so "value >= table[k]" is exactly "k >= first crossing".
    acc_top_after = _sorted_crossing(tables.phi, nv)
    acc_top_before = _sorted_crossing(tables.phibar, nv)
    acc_b_after = _sorted_crossing(tables.phi, b)
    acc_b_before = _sorted_crossing(tables.phibar, b)
    acc_a = _sorted_crossing(tables.phi, a)

    def walk(rng: np.random.Generator, pos_a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = pos_a.size
        a_slot = np.where(pos_a >= acc_a, pos_a, _NEVER)
        reward = np.zeros(m)
        stop = np.zeros(m, dtype=np.int64)
        jcur = np.zeros(m, dtype=np.int64)  # V-draws consumed so far
        alive = np.arange(m, dtype=np.int64)

        while alive.size:
            strides = rng.geometric(q_nz, size=alive.size).astype(np.int64)
            jnext = jcur[alive] + strides
            has_event = jnext <= n
            pos_alive = pos_a[alive]
            slot_ev = np.where(has_event, jnext + (jnext >= pos_alive), _NEVER)
            a_first = a_slot[alive] < slot_ev

            done_a = alive[a_first]
            reward[done_a] = a
            stop[done_a] = a_slot[alive][a_first]

            ev_mask = has_event & ~a_first
            ev_idx = alive[ev_mask]
            u = rng.random(size=ev_idx.size)
            is_top = u < top_frac
            slots = slot_ev[ev_mask]
            before = slots < pos_a[ev_idx]
            threshold_idx = np.where(
                is_top,
                np.where(before, acc_top_before, acc_top_after),
                np.where(before, acc_b_before, acc_b_after),
            )
            accepted = (slots >= threshold_idx) | (slots == n + 1)
            done_v = ev_idx[accepted]
            reward[done_v] = np.where(is_top[accepted], nv, b)
            stop[done_v] = slots[accepted]

            # No non-zero draw left and no pending constant stop: the walk
            # reaches the final slot and collects the zero there.
            done_zero = alive[~has_event & ~a_first]
            reward[done_zero] = 0.0
            stop[done_zero] = n + 1

            cont = ev_idx[~accepted]
            jcur[cont] = jnext[ev_mask][~accepted]
            alive = cont
        return reward, stop

    return _run_batches(n, trials, seed, walk)


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
    _require_simulatable(inst, trials)
    n = inst.n
    a, b = inst.a, inst.b
    nv = float(n)
    w_top, w_mid, _ = inst.distribution().masses
    p_mid = w_mid / (1.0 - w_top)

    def draw(rng: np.random.Generator, pos_a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        first_top = rng.geometric(w_top, size=pos_a.size)
        first_mid = rng.geometric(p_mid, size=pos_a.size)
        top = first_top <= n
        mid = first_mid <= n  # decides only where top is False
        reward = np.where(top, nv, np.where(mid, b, a))
        j = np.where(top, first_top, first_mid)
        stop = np.where(top | mid, j + (j >= pos_a), pos_a)
        return reward, stop

    return _run_batches(n, trials, seed, draw)
