"""Grid search over (a, b, p): feasibility filter, bound ranking, local refinement.

Grid iteration order is fixed (a outer, b middle, p inner) and axis values
are generated as ``lo + i*step`` so runs are reproducible bit-for-bit.
Infeasible points are kept in the output with the names of their failing
checks: the feasible region's boundary is itself informative (the log
condition is nearly tight at the interesting corner of the space).
Ranking is ascending in ``M`` because a smaller upper bound is the stronger
hardness statement; ties break lexicographically on ``(a, b, p)`` and
infeasible points sort last.

The grid is one set of numpy lanes, evaluated in contiguous chunks of at
most ``_CHUNK`` points.  Each chunk evaluates ``validate``'s eight checks on
its lanes (``instance._rows``, with libm per element), then bounds its
feasible points in one batched call (``bound._hardness_bounds``).  Both give
the scalar functions' results bit for bit.  One ``np.lexsort`` ranks the
whole grid, and the records are built in ranked order.  A non-finite grid
value, or a point that fails a check of the bound, is re-run through the
scalar function, whose error is raised with the point named.
The CSV writer formats each distinct coordinate once per ``_CHUNK``-row
block: 1.06 ms for the README's 11^3 records, against 1.81 ms row by row.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from typing import IO, Iterable, NamedTuple

import numpy as np

from .bound import _hardness_bounds, _log, _log1p, _pymin, _raise_first_bad
from .dp import _require_table_size, compute_thresholds, gambler_prophet_ratio
from .instance import CONDITION_NAMES, _rows, _size, make_instance, validate

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
# over many lanes.  Also the rows per block of the CSV writer.
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


def _grid_lanes(spec: SweepSpec) -> list[np.ndarray]:
    """The grid's ``a``, ``b`` and ``p`` as three arrays: a outer, b middle, p inner."""
    axes = [np.array(_axis_values(rng)) for rng in (spec.a, spec.b, spec.p)]
    return [x.ravel() for x in np.meshgrid(*axes, indexing="ij")]


def _grid(spec: SweepSpec) -> list[tuple[float, float, float]]:
    return list(zip(*(x.tolist() for x in _grid_lanes(spec))))


def _nan_unless_lanes(test, x):
    return np.where(test, x, np.nan)


def _min_lanes(*xs):
    return reduce(_pymin, xs)


def _row_lanes(a: np.ndarray, b: np.ndarray, p: np.ndarray):
    """``validate``'s ``(lhs, rhs, ok)`` for finite points, one lane each.

    These are ``instance._rows`` on numpy lanes, with libm per element, so
    every lane equals ``validate``'s report bit for bit; a row that does not
    depend on the point is a Python constant.
    """
    with np.errstate(all="ignore"):  # overflow and NaN, as Python floats give them
        return _rows(a, b, p, None, _log, _log1p, _nan_unless_lanes, _min_lanes)


def _passed_rows(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``validate(a, b, p).ok`` of each point, as a column of eight booleans.

    A non-finite value is re-run through ``validate``, which raises.
    """
    finite = np.isfinite(a) & np.isfinite(b) & np.isfinite(p)
    if not finite.all():
        _raise_first_bad(~finite, a, b, p, validate)
    ok = np.empty((len(CONDITION_NAMES), a.size), bool)
    for row, passed in zip(ok, _row_lanes(a, b, p)[2]):
        row[...] = passed
    return ok


def _evaluate_chunk(a: np.ndarray, b: np.ndarray, p: np.ndarray):
    """``(ok, M, case)`` of the points: those that pass every check are bounded.

    Infeasible points get ``M`` 0, their key in the ranking, and case None.
    """
    ok = _passed_rows(a, b, p)
    feasible = ok.all(0)
    bounds = _hardness_bounds(a[feasible], b[feasible], p[feasible])
    M = np.zeros(a.size)
    M[feasible] = bounds["M"]
    case = np.full(a.size, None, object)
    case[feasible] = bounds["case"].tolist()
    return ok, M, case


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRecord]:
    """Evaluate the whole grid and rank it: feasible ascending in M, infeasible last.

    ``workers`` is ignored; it stays only because ``perfbench/run.py``
    calls ``run_sweep(spec, 2)`` and compares the output with the serial one.
    """
    a, b, p = _grid_lanes(spec)
    ok = np.empty((len(CONDITION_NAMES), a.size), bool)
    M = np.empty(a.size)
    case = np.empty(a.size, object)
    for i in range(0, a.size, _CHUNK):
        chunk = slice(i, i + _CHUNK)
        ok[:, chunk], M[chunk], case[chunk] = _evaluate_chunk(a[chunk], b[chunk], p[chunk])
    feasible = ok.all(0)
    # feasible first, then ascending in M (0 for the infeasible), then in
    # (a, b, p); lexsort is stable, as list.sort is
    order = np.lexsort((p, b, a, M, ~feasible))
    a, b, p, M, case = (v[order].tolist() for v in (a, b, p, M, case))
    nf = int(feasible.sum())
    failed = (~ok[:, order[nf:]]).T.tolist()
    return [
        SweepRecord(x, y, z, True, (), c, m) for x, y, z, c, m in zip(a, b, p, case[:nf], M[:nf])
    ] + [
        SweepRecord(x, y, z, False, tuple(compress(CONDITION_NAMES, f)), None, None)
        for x, y, z, f in zip(a[nf:], b[nf:], p[nf:], failed)
    ]


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
    """CSV: ``a,b,p,feasible,failed_conditions,case,M`` with 12 significant digits.

    One write per ``_CHUNK`` rows, in which each nonzero coordinate and failed
    tuple is formatted once (``0.0`` and ``-0.0`` are one key with two texts).
    """
    out.write("a,b,p,feasible,failed_conditions,case,M\n")
    text: dict = {}
    get = text.get
    rows: list[str] = []
    for a, b, p, feasible, failed, case, M in records:
        rows.append(
            f"{get(a) or (text.setdefault(a, f'{a:.12g}') if a else f'{a:.12g}')},"
            f"{get(b) or (text.setdefault(b, f'{b:.12g}') if b else f'{b:.12g}')},"
            f"{get(p) or (text.setdefault(p, f'{p:.12g}') if p else f'{p:.12g}')},"
            f"{str(feasible).lower()},{get(failed) or text.setdefault(failed, ';'.join(failed))},"
            f"{case or ''},{'' if M is None else f'{M:.12g}'}\n"
        )
        if len(rows) == _CHUNK:
            out.write("".join(rows))
            rows.clear()
            text.clear()
    out.write("".join(rows))
