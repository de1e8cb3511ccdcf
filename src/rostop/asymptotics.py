"""Closed-form asymptotics of the backward-induction analysis.

Contents:

* the limits ``lambda*`` and ``mu*`` of the normalised acceptance times
  ``j_n/n`` and ``k_n/n``;
* the exponential quadratic ``q(lambda, mu, nu)`` whose maximum over
  ``nu in [mu*, lambda*]`` yields the hardness bound, together with its
  first three derivatives in ``nu`` (after substituting ``lambda = lambda*``),
  which the bound's bisection and certificate read, and its value at
  ``(lambda*, mu*)`` in a closed form free of ``1/p^2`` terms;
* the index ``k*`` and the finite-size sandwich diagnostics: an iterative
  lower bound on ``phibar`` from step ``k_n - 1`` on, and the linear upper
  bound ``a + (n-k)/2 * (1+(b-a)p)/n`` from step ``j_n`` on.

The sandwich inequalities are asymptotic statements, so the diagnostics
never hard-fail: each check reports its worst margin over the examined
index range and a pass flag.  The lower bound's tail sums are one
cumulative sum of the geometric partial sums that ``dp`` gives ``phi`` in
its low regime, exact to a few ulps at every length.  Both bounds walk
``k`` in tiles of ``dp._TILE`` steps and turn into their margins in place,
in scratch of a few tiles, and each worst margin is a running minimum.  The
lower bound is an exact identity for the recursion on ``k >= j_n`` and the
upper bound's true margin at ``k = n-1`` is ``a/(2n^2)``, so at large sizes
both margins sit at the rounding floor of the n-step recursion that built
``phibar``; the sign test therefore allows ``SIGN_TOLERANCE`` of float
noise.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import dp
from .dp import AcceptanceTimes, ThresholdTables, _require_matching_tables
from .instance import InstanceParams, InfeasibleInstanceError, ParameterError, validate

__all__ = [
    "SIGN_TOLERANCE",
    "AsymptoticProfile",
    "DiagnosticCheck",
    "DiagnosticsReport",
    "lambda_mu_star",
    "q_eval",
    "k_star",
    "verify_bound_sandwich",
]

# Float-noise allowance for sandwich sign checks; covers ~n*2^-52 recursion
# drift up to n ~ 10^7 with an order of magnitude to spare.
SIGN_TOLERANCE = 1e-9


@dataclass(frozen=True)
class AsymptoticProfile:
    """Limits of the normalised acceptance times for one parameter triple."""

    a: float
    b: float
    p: float
    lambda_star: float
    mu_star: float


@dataclass(frozen=True)
class DiagnosticCheck:
    check: str
    k_lo: int
    k_hi: int
    worst_margin: float
    passed: bool

    def as_dict(self) -> dict:
        row = asdict(self)
        row["pass"] = row.pop("passed")
        return row


@dataclass(frozen=True)
class DiagnosticsReport:
    checks: tuple[DiagnosticCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> DiagnosticCheck:
        for c in self.checks:
            if c.check == name:
                return c
        raise KeyError(name)

    def to_json(self) -> str:
        return json.dumps([c.as_dict() for c in self.checks])


def lambda_mu_star(a: float, b: float, p: float) -> AsymptoticProfile:
    """Limits ``lambda* = 1 + log((1+(b-a)p)/(1+bp))/p`` and ``mu* = 1 - log(1+bp)/p``.

    Requires a feasible triple; under feasibility ``0 < mu* < lambda* < 1``
    (the log condition gives ``mu* > 0``; ``a < b`` gives the gap).  ``mu*``
    does not involve ``a``.
    """
    report = validate(a, b, p)
    if not report.passed:
        raise InfeasibleInstanceError(report)
    lam, mu = _limits(a, b, p, math.log1p)
    return AsymptoticProfile(a=a, b=b, p=p, lambda_star=lam, mu_star=mu)


# The formulas below check nothing and take ``exp``, ``log1p``, ``expm1`` and
# ``where`` as arguments: ``math``'s and :func:`_where` on the scalar path,
# libm per element and ``np.where`` on the bound's numpy lanes, so both
# evaluate one source and get the same bits.  (The lanes' halvings pass
# numpy's ``exp``; see ``bound``.)


def _where(cond, x, y):
    """``np.where`` for one scalar."""
    return x if cond else y


def _limits(a, b, p, log1p):
    """``(lambda*, mu*)``; see :func:`lambda_mu_star`."""
    log_bp = log1p(b * p)
    return 1.0 + (log1p((b - a) * p) - log_bp) / p, 1.0 - log_bp / p


def _limits_residual(a, b, p, lam, mu, exp):
    """Summed relative residuals of ``(1 + bp) e^{p(lam - 1)} = 1 + (b - a)p``
    and ``(1 + bp) e^{p(mu - 1)} = 1``, the identities that define ``lambda*``
    and ``mu*`` and that the simplified ``q'`` and :func:`_q_at_limits` absorb."""
    u, v = 1.0 + b * p, 1.0 + (b - a) * p
    return abs(u * exp(p * (lam - 1.0)) - v) / v + abs(u * exp(p * (mu - 1.0)) - 1.0)


def _q(a, b, p, lam, mu, nu, exp):
    """``q(lam, mu, nu)``; see :func:`q_eval`."""
    ib = 1.0 / p + b
    return (
        mu * mu / 2.0
        - nu * nu / 2.0
        + nu
        + ib
        + (1.0 / p - mu) * ib * exp(p * (mu - 1.0))
        + (ib * (nu - lam) - a / p) * exp(p * (nu - 1.0))
        - (1.0 / p) * (ib - a) * exp(p * (nu - lam))
    )


# phi2's series, sum_k x^k / (k + 2)!, runs below 2, where 22 terms leave out
# under 0.1 ulp; above 2, expm1(x) - x cancels at most a third of expm1(x).
_PHI2_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(22))


def _phi2(x, expm1, where):
    """``(e^x - 1 - x) / x^2`` for ``x >= 0``, within 3 ulps."""
    series = _PHI2_SERIES[-1]
    for c in _PHI2_SERIES[-2::-1]:
        series = series * x + c
    big = where(x < 2.0, 2.0, x)  # keeps expm1's branch off x = 0
    return where(x < 2.0, series, (expm1(big) - big) / (big * big))


def _q_at_limits(b, p, mu, nu, q1, expm1, where):
    """``q(lambda*, mu*, nu)`` from ``q1 = q'(nu)``, with no ``1/p^2`` terms.

    The identities of :func:`_limits_residual` turn :func:`_q`'s two
    ``1/p^2`` terms into ``-(e^x - 1)/p^2 - mu*/p`` with ``x = p(nu - mu*)``,
    and its middle term is ``(q'(nu) - 1 + nu)/p``; only ``q'``'s rounding,
    about one ulp of 1, is divided by ``p``.
    """
    d = nu - mu
    return b + nu - nu * nu / 2.0 + mu * mu / 2.0 - d * d * _phi2(p * d, expm1, where) + q1 / p


def _q_prime_terms(a, p, lam, u, nu, exp):
    """``(q1, e1, slope)`` at ``nu`` from one ``exp``, with ``u = 1 + bp``; ``e1``
    and ``slope`` are shared with the higher derivatives (:func:`_q_higher_terms`)."""
    e1 = exp(p * (nu - 1.0))
    slope = u * (nu - lam)
    return 1.0 - nu + (slope - a) * e1, e1, slope


def _q_higher_terms(a, b, p, e1, slope):
    """``(q2, q3)`` from the factors that :func:`_q_prime_terms` returns."""
    q2 = -1.0 + (1.0 + p * (b - a + slope)) * e1
    q3 = p * (2.0 + p * (2.0 * b - a + slope)) * e1
    return q2, q3


def q_eval(a: float, b: float, p: float, lam: float, mu: float, nu: float) -> float:
    """The six-term exponential quadratic ``q_{a,b,p}(lambda, mu, nu)``."""
    return _q(a, b, p, lam, mu, nu, math.exp)


def _q_derivatives(a, b, p, lam, mu_star, nu):
    """First three nu-derivatives of ``q(lam, mu*, nu)`` at ``nu in [mu*, lam]``,
    ``nu`` checked as :func:`_q_prime` checks it."""
    q1, e1, slope = _q_prime(a, p, lam, mu_star, 1.0 + b * p, nu)
    q2, q3 = _q_higher_terms(a, b, p, e1, slope)
    return q1, q2, q3


def _q_prime(a, p, lam, mu_star, u, nu):
    """``(q1, e1, slope)``: ``q'`` at ``nu``, with ``u = 1 + bp`` taken once per point.

    ``q'`` is simplified by ``lambda*``'s identity (:func:`_limits_residual`),
    so it holds only at the true ``lambda*``; the bound's certificate checks
    that identity once per point.  A ``nu`` outside ``[mu_star, lam]``
    raises :class:`ParameterError`.
    """
    if not mu_star <= nu <= lam:
        raise ParameterError(f"nu={nu!r} outside [mu*, lambda*] = [{mu_star!r}, {lam!r}]")
    return _q_prime_terms(a, p, lam, u, nu, math.exp)


def _require_matching_times(inst: InstanceParams, times: AcceptanceTimes) -> None:
    # Times read off tables of another size would misplace the sandwich's index ranges.
    if times.n != inst.n:
        raise ValueError(
            f"acceptance times do not match the instance: times.n={times.n}, instance n={inst.n}"
        )


def k_star(a: float, b: float, p: float, n: int) -> int:
    """``ceil(n * (1-(2-p)(b-a)) / (1+p(b-a)))``: first index where the upper
    bound on ``phibar`` falls to ``b``.  Positivity needs condition II, so
    without it this raises :class:`ParameterError`."""
    if not (2.0 - p) * (b - a) < 1.0:
        raise ParameterError(
            f"condition II fails: (2-p)(b-a) = {(2.0 - p) * (b - a)!r} >= 1"
        )
    return _k_star(a, b, p, n)


def _k_star(a, b, p, n):
    """:func:`k_star`'s formula without its gate: at most 0 where condition II fails."""
    return math.ceil(n * (1.0 - (2.0 - p) * (b - a)) / (1.0 + p * (b - a)))


def _lower_bound_tail_sums(eps: float, max_length: int, ramp: np.ndarray):
    """S(L) = sum_{j=0}^{L-1} ((L-j)/(L+1)) * (1-eps)^j for L = 1..max_length, in order.

    ``sum_j (L-j) q^j`` is the sum over ``r = 1..L`` of the geometric
    partial sums ``G(r) = sum_{j<r} q^j``, the closed form
    :func:`~rostop.dp._geometric` gives ``phi`` in its low regime, so one
    cumulative sum of positive terms gives every ``S(L)``, with no
    cancellation at any ``L * eps``; at ``eps = 1`` every ``G(r)`` is 1.
    Given ``ramp = 0, 1, ..., t - 1`` as floats, yields the values ``t``
    lengths at a time, as views of one scratch array that the next tile
    overwrites; the cumulative sum carries into the next tile as its
    running sum added to the tile's first term.
    """
    tile = ramp.size
    s, d = np.empty(tile), np.empty(tile)
    carry = 0.0
    for start in range(0, max_length, tile):
        m = min(tile, max_length - start)
        t = dp._geometric(1.0, eps, np.add(ramp[:m], start + 1.0, out=d[:m]), s[:m])
        t[0] += carry
        np.cumsum(t, out=t)  # t[L-1-start] = sum_{r<=L} G(r) = sum_{j<L} (L-j) q^j
        carry = t.item(-1)
        t /= np.add(ramp[:m], start + 2.0, out=d[:m])
        yield t


def verify_bound_sandwich(
    inst: InstanceParams, tables: ThresholdTables, times: AcceptanceTimes
) -> DiagnosticsReport:
    """Check the finite-size sandwich on ``phibar`` and the index ordering.

    * ``lower_bound``: ``phibar[k] >= a + ((1+(b-a)p)/n - a/n^2) * S(n-k)``
      for ``k in [k_n - 1, n - 1]``;
    * ``upper_bound``: ``phibar[k] <= a + (n-k)/2 * (1+(b-a)p)/n``
      for ``k in [j_n, n - 1]``;
    * ``ordering``: ``k_n <= kbar_n <= k*``;
    * ``kstar_below_j``: ``k* < j_n``.

    Margins are signed so that nonnegative means the claim holds.  Both
    bounds are evaluated to a few ulps, so a negative float margin is the
    rounding drift of ``phibar``'s own recursion; the two float-valued
    checks pass within ``-SIGN_TOLERANCE``, the two integer checks are
    exact.  A bound with an empty index range (``k_n - 1`` or ``j_n`` past
    ``n - 1``) reports ``worst_margin = inf`` and passes.

    :func:`~rostop.instance.validate` does not imply ``kbar_n <= k*``: at the
    feasible point ``(0.75, 1.28, 0.48)``, ``kbar_n/n`` tends to ``nu* =
    0.159265``, above the limit 0.154975 of ``k*/n``, so ``ordering`` fails
    at every size (margin -43 at n = 10^4, -4290 at n = 10^6).  ``k*`` is
    :func:`k_star`'s formula without its condition II gate, so a real law
    that fails condition II gets all four checks too: there ``k* <= 0`` and
    ``ordering`` fails with its margin.
    """
    _require_matching_tables(inst, tables)
    _require_matching_times(inst, times)
    n = inst.n
    a, b, p = inst.a, inst.b, inst.p
    checks = []

    w_top, w_mid, _ = inst.distribution().masses
    eps = w_mid + w_top
    coeff = (1.0 + (b - a) * p) / n - a / (n * n)

    phibar = tables.phibar
    ramp = np.arange(float(min(dp._TILE, n)))  # scratch for walks of ramp.size steps
    k_lo = max(1, times.k_n - 1)
    lower_margin, hi = math.inf, n  # S(n - k) for k = hi - 1, hi - 2, ...
    for lower in _lower_bound_tail_sums(eps, n - k_lo, ramp):
        lower *= coeff
        lower += a
        lo = hi - lower.size
        np.subtract(phibar[lo:hi][::-1], lower, out=lower)
        lower_margin = float(np.min(lower, initial=lower_margin))
        hi = lo
    checks.append(
        DiagnosticCheck(
            "lower_bound", k_lo, n - 1, lower_margin, lower_margin >= -SIGN_TOLERANCE
        )
    )

    scratch, upper_margin = np.empty(ramp.size), math.inf
    for lo in range(times.j_n, n, ramp.size):
        hi = min(n, lo + ramp.size)
        upper = np.subtract(n - lo, ramp[:hi - lo], out=scratch[:hi - lo])  # n - k on [lo, hi)
        upper /= 2.0
        upper *= 1.0 + (b - a) * p
        upper /= n
        upper += a
        upper -= phibar[lo:hi]
        upper_margin = float(np.min(upper, initial=upper_margin))
    checks.append(
        DiagnosticCheck(
            "upper_bound", times.j_n, n - 1, upper_margin, upper_margin >= -SIGN_TOLERANCE
        )
    )

    ks_val = _k_star(a, b, p, n)
    order_margin = float(min(times.kbar_n - times.k_n, ks_val - times.kbar_n))
    checks.append(
        DiagnosticCheck("ordering", times.k_n, ks_val, order_margin, order_margin >= 0.0)
    )
    sep_margin = float(times.j_n - ks_val)
    checks.append(
        DiagnosticCheck("kstar_below_j", ks_val, times.j_n, sep_margin, sep_margin > 0.0)
    )
    return DiagnosticsReport(checks=tuple(checks))
