"""Grid search over (a, b, p): feasibility filter, bound ranking, local refinement.

Grid iteration order is fixed (a outer, b middle, p inner) and axis values
are generated as ``lo + i*step`` so runs are reproducible bit-for-bit.
Infeasible points are kept in the output with the names of their failing
checks: the feasible region's boundary is itself informative (the log
condition is nearly tight at the interesting corner of the space).
Ranking is ascending in ``M`` because a smaller upper bound is the stronger
hardness statement; ties break lexicographically on ``(a, b, p)`` and
infeasible points sort last.

The grid is evaluated in contiguous chunks of at most ``_CHUNK`` points.
Each chunk runs ``validate`` once per point, then bounds its feasible points
in one batched call (``bound._hardness_bounds``), whose results equal
:func:`~rostop.bound.hardness_bound`'s bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple

import numpy as np

from .bound import _hardness_bounds
from .dp import _require_table_size, compute_thresholds, gambler_prophet_ratio
from .instance import _size, make_instance, validate

__all__ = [
    "MAX_GRID_POINTS",
    "SweepSizeError",
    "SweepSpec",
    "SweepRecord",
    "run_sweep",
    "refine",
    "dp_cross_check",
    "write_sweep_csv",
]

MAX_GRID_POINTS = 10_000_000
# Points per batched bound call: bounds the lane arrays on grids up to
# MAX_GRID_POINTS, and is large enough that numpy's per-call cost is spread
# over many lanes.
_CHUNK = 4096


class SweepSizeError(ValueError):
    """Requested grid exceeds the desk-scale point budget."""


@dataclass(frozen=True)
class SweepSpec:
    """Axis ranges ``(lo, hi, step)`` plus refinement controls.

    ``n`` optionally names a positive integer size, at most ``MAX_TABLE_N``,
    at which the best points can be cross-checked against the finite-size
    program (see :func:`dp_cross_check`).  ``shrink`` divides both the width
    and the step of every axis once per refinement round.
    """

    a: tuple[float, float, float]
    b: tuple[float, float, float]
    p: tuple[float, float, float]
    n: int | None = None
    refine_rounds: int = 0
    shrink: float = 2.0

    def __post_init__(self):
        for name, (lo, hi, step) in ("a", self.a), ("b", self.b), ("p", self.p):
            if not all(map(math.isfinite, (lo, hi, step))):
                raise ValueError(f"{name}: range must be finite, got {(lo, hi, step)!r}")
            if not lo <= hi:
                raise ValueError(f"{name}: lo {lo!r} > hi {hi!r}")
            if not step > 0:
                raise ValueError(f"{name}: step must be positive, got {step!r}")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")
        if not 1.0 < self.shrink < math.inf:
            raise ValueError(f"shrink must be finite and exceed 1, got {self.shrink!r}")
        if self.n is not None:
            _require_table_size(_size(self.n))  # before the sweep, not after it
        total = 1
        for rng in (self.a, self.b, self.p):
            total *= _axis_count(rng)
        if total > MAX_GRID_POINTS:
            raise SweepSizeError(f"grid has {total} points, budget is {MAX_GRID_POINTS}")


class SweepRecord(NamedTuple):
    """One evaluated grid point; ``M``/``case`` are present iff feasible."""

    a: float
    b: float
    p: float
    feasible: bool
    failed_conditions: tuple[str, ...]
    case: str | None
    M: float | None


def _axis_count(rng: tuple[float, float, float]) -> int:
    lo, hi, step = rng
    steps = (hi - lo) / step
    if not math.isfinite(steps):  # so many points that no budget admits them
        raise SweepSizeError(f"axis {rng!r} has over {MAX_GRID_POINTS} points")
    return int(math.floor(steps + 1e-12)) + 1


def _axis_values(rng: tuple[float, float, float]) -> list[float]:
    lo, _, step = rng
    return [lo + i * step for i in range(_axis_count(rng))]


def _grid(spec: SweepSpec) -> list[tuple[float, float, float]]:
    return [
        (a, b, p)
        for a in _axis_values(spec.a)
        for b in _axis_values(spec.b)
        for p in _axis_values(spec.p)
    ]


def _evaluate_chunk(points: list[tuple[float, float, float]]) -> list[SweepRecord]:
    """Validate each point, then bound the feasible ones in one batched call."""
    # Only the failed names are kept, not the reports, which are large.
    failed = [validate(*pt).failed_names() for pt in points]
    feasible = [pt for pt, names in zip(points, failed) if not names]
    bounds = _hardness_bounds(*np.array(feasible, float).reshape(-1, 3).T)
    case_and_M = zip(bounds["case"].tolist(), bounds["M"].tolist())
    return [
        SweepRecord(a, b, p, False, names, None, None) if names
        else SweepRecord(a, b, p, True, (), *next(case_and_M))
        for (a, b, p), names in zip(points, failed)
    ]


def _sort_key(rec: SweepRecord):
    if rec.feasible:
        return (0, rec.M, rec.a, rec.b, rec.p)
    return (1, 0.0, rec.a, rec.b, rec.p)


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRecord]:
    """Evaluate the whole grid and rank it: feasible ascending in M, infeasible last.

    ``workers`` is ignored; it stays only because ``perfbench/run.py``
    calls ``run_sweep(spec, 2)`` and compares the output with the serial one.
    """
    points = _grid(spec)
    records = [
        rec
        for i in range(0, len(points), _CHUNK)
        for rec in _evaluate_chunk(points[i : i + _CHUNK])
    ]
    records.sort(key=_sort_key)
    return records


def refine(best: SweepRecord, spec: SweepSpec) -> SweepRecord:
    """Shrink the grid around ``best`` and re-sweep, ``spec.refine_rounds`` times.

    The incumbent always stays in contention, so the returned M never
    exceeds the input M.  A round whose grid contains no feasible point
    leaves the incumbent unchanged and emits a warning.
    """
    if not best.feasible:
        raise ValueError("refinement must start from a feasible record")
    incumbent = best
    widths = [hi - lo for lo, hi, _ in (spec.a, spec.b, spec.p)]
    steps = [step for _, _, step in (spec.a, spec.b, spec.p)]
    for _ in range(spec.refine_rounds):
        widths = [w / spec.shrink for w in widths]
        steps = [s / spec.shrink for s in steps]
        center = (incumbent.a, incumbent.b, incumbent.p)
        axes = tuple(
            (c - w / 2.0, c + w / 2.0, s) for c, w, s in zip(center, widths, steps)
        )
        round_spec = SweepSpec(a=axes[0], b=axes[1], p=axes[2])
        feasible = [r for r in run_sweep(round_spec) if r.feasible]
        if not feasible:
            warnings.warn(
                "refinement round found no feasible point; keeping the incumbent",
                stacklevel=2,
            )
            return incumbent
        candidate = feasible[0]  # ranked output: minimal M first
        if candidate.M < incumbent.M:
            incumbent = candidate
    return incumbent


def dp_cross_check(record: SweepRecord, n: int) -> float:
    """Finite-size ratio of the record's parameter point, for comparison with M."""
    if not record.feasible:
        raise ValueError("cross-check needs a feasible record")
    inst, _ = make_instance(record.a, record.b, record.p, n)
    return gambler_prophet_ratio(inst, compute_thresholds(inst))


def write_sweep_csv(records: Iterable[SweepRecord], out: IO[str]) -> None:
    """CSV: ``a,b,p,feasible,failed_conditions,case,M`` with 12 significant digits."""
    out.write("a,b,p,feasible,failed_conditions,case,M\n")
    for a, b, p, feasible, failed, case, M in records:
        m = f"{M:.12g}" if M is not None else ""
        failed = ";".join(failed)
        out.write(f"{a:.12g},{b:.12g},{p:.12g},{str(feasible).lower()},{failed},{case or ''},{m}\n")
