"""Closed-form asymptotics of the backward-induction analysis.

Contents:

* the limits ``lambda*`` and ``mu*`` of the normalised acceptance times
  ``j_n/n`` and ``k_n/n``;
* the exponential quadratic ``q(lambda, mu, nu)`` whose maximum over
  ``nu in [mu*, lambda*]`` yields the hardness bound, together with its
  first three derivatives in ``nu`` (after substituting ``lambda = lambda*``);
* the large-size conditional expectations of the stopped value given the
  arrival position of the constant, and the four segment sums whose total
  telescopes exactly to ``q``;
* the index ``k*`` and the finite-size sandwich diagnostics: an iterative
  lower bound on ``phibar`` from step ``k_n - 1`` on, and the linear upper
  bound ``a + (n-k)/2 * (1+(b-a)p)/n`` from step ``j_n`` on.

The sandwich inequalities are asymptotic statements, so the diagnostics
never hard-fail: each check reports its worst margin over the examined
index range and a pass flag.  The lower bound's tail sums come from one
cumulative-sum path, exact to a few ulps at every length; they are built in
order of length and read in step order through a reversed view, and each
bound turns into its margins in place, in its own array.  The lower bound
is an exact identity for the recursion on ``k >= j_n`` and the upper
bound's true margin at ``k = n-1`` is ``a/(2n^2)``, so at large sizes both
margins sit at the rounding floor of the n-step recursion that built
``phibar``; the sign test therefore allows ``SIGN_TOLERANCE`` of float
noise.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .dp import AcceptanceTimes, ThresholdTables, _require_matching_tables
from .instance import InstanceParams, InfeasibleInstanceError, ParameterError, validate

__all__ = [
    "SIGN_TOLERANCE",
    "AsymptoticProfile",
    "DiagnosticCheck",
    "DiagnosticsReport",
    "OrderingError",
    "ConsistencyError",
    "lambda_mu_star",
    "q_eval",
    "q_derivatives",
    "conditional_expectation_asymptotic",
    "partial_sums",
    "k_star",
    "verify_bound_sandwich",
]

# Float-noise allowance for sandwich sign checks; covers ~n*2^-52 recursion
# drift up to n ~ 10^7 with an order of magnitude to spare.
SIGN_TOLERANCE = 1e-9


class OrderingError(ValueError):
    """Acceptance times violate k_n <= kbar_n <= j_n, so the case split is invalid."""


class ConsistencyError(RuntimeError):
    """Two internally equivalent evaluations disagree; signals a transcription bug."""


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


# The formulas below check nothing and take ``exp``/``log1p`` as arguments:
# ``math``'s on the scalar path, libm per element on the bound's numpy lanes,
# so both evaluate one source and get the same bits.


def _limits(a, b, p, log1p):
    """``(lambda*, mu*)``; see :func:`lambda_mu_star`."""
    log_bp = log1p(b * p)
    return 1.0 + (log1p((b - a) * p) - log_bp) / p, 1.0 - log_bp / p


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


def _q_terms(a, b, p, lam, nu, exp):
    """``(q1, q1_unsimplified, q2, q3)`` at ``nu``; see :func:`q_derivatives`."""
    e1 = exp(p * (nu - 1.0))
    slope = (1.0 + b * p) * (nu - lam)
    q1 = 1.0 - nu + (slope - a) * e1
    q1_unsimplified = (
        1.0
        - nu
        + ((1.0 / p + b) + slope - a) * e1
        - (1.0 / p + b - a) * exp(p * (nu - lam))
    )
    q2 = -1.0 + (1.0 + p * (b - a + slope)) * e1
    q3 = p * (2.0 + p * (2.0 * b - a + slope)) * e1
    return q1, q1_unsimplified, q2, q3


def q_eval(a: float, b: float, p: float, lam: float, mu: float, nu: float) -> float:
    """The six-term exponential quadratic ``q_{a,b,p}(lambda, mu, nu)``."""
    return _q(a, b, p, lam, mu, nu, math.exp)


def q_derivatives(
    a: float, b: float, p: float, lambda_star: float, nu: float
) -> tuple[float, float, float]:
    """First three nu-derivatives of ``q(lambda*, mu*, nu)`` on ``[mu*, lambda*]``.

    The simplified forms absorb the identity
    ``(1/p + b - a) e^{p(nu - lambda*)} = (1/p + b) e^{p(nu - 1)}``, which
    holds only at the true ``lambda*``; every call re-evaluates the
    unsimplified derivative and raises :class:`ConsistencyError` if the two
    disagree beyond 1e-12, so a wrong ``lambda_star`` cannot pass silently.
    """
    mu_star = _limits(a, b, p, math.log1p)[1]
    if not mu_star <= nu <= lambda_star:
        raise ParameterError(
            f"nu={nu!r} outside [mu*, lambda*] = [{mu_star!r}, {lambda_star!r}]"
        )
    q1, q1_unsimplified, q2, q3 = _q_terms(a, b, p, lambda_star, nu, math.exp)
    if abs(q1 - q1_unsimplified) > 1e-12:
        raise ConsistencyError(
            "simplified and unsimplified q' disagree: "
            f"{q1!r} vs {q1_unsimplified!r} (is lambda_star correct?)"
        )
    return q1, q2, q3


def _require_matching_times(inst: InstanceParams, times: AcceptanceTimes) -> None:
    # Times read off tables of another size would place the breakpoints wrongly.
    if times.n != inst.n:
        raise ValueError(
            f"acceptance times do not match the instance: times.n={times.n}, instance n={inst.n}"
        )


def _require_ordering(times: AcceptanceTimes) -> None:
    if not times.k_n <= times.kbar_n <= times.j_n:
        raise OrderingError(
            f"need k_n <= kbar_n <= j_n, got ({times.k_n}, {times.kbar_n}, {times.j_n})"
        )


def conditional_expectation_asymptotic(
    inst: InstanceParams, times: AcceptanceTimes, i: int
) -> float:
    """Large-size ``E[stopped value | constant arrives at position i]``.

    Piecewise in ``i`` with breakpoints at ``k_n``, ``kbar_n`` and ``j_n``;
    all O(1/n) corrections are dropped.  Requires the eventual ordering
    ``k_n <= kbar_n <= j_n``.
    """
    _require_matching_times(inst, times)
    _require_ordering(times)
    n = inst.n
    if not 1 <= i <= n + 1:
        raise IndexError(f"position {i} out of range [1, {n + 1}]")
    a, b, p = inst.a, inst.b, inst.p
    ib = 1.0 / p + b
    mu, nu = times.mu_n, times.nu_n
    if i < times.k_n:
        return mu + ib * (1.0 - math.exp(p * (mu - 1.0)))
    if i < times.kbar_n:
        x = i / n
        return x + ib * (1.0 - math.exp(p * (x - 1.0)))
    if i < times.j_n:
        return nu + ib * (1.0 - math.exp(p * (nu - 1.0)))
    e = math.exp(p * (nu - i / n))
    return nu + ib * (1.0 - e) + a * e


def partial_sums(
    inst: InstanceParams, times: AcceptanceTimes
) -> tuple[float, float, float, float]:
    """Asymptotic values of the four position segments of the total expectation.

    Segments: positions before ``k_n``, in ``[k_n, kbar_n)``, in
    ``[kbar_n, j_n)`` and from ``j_n`` on (empty-sum convention: an empty
    segment contributes exactly 0).  Their sum telescopes algebraically to
    ``q(lambda_n, mu_n, nu_n)``; this identity is re-verified on every call
    to 1e-10 and a violation raises :class:`ConsistencyError`.
    """
    _require_matching_times(inst, times)
    _require_ordering(times)
    a, b, p = inst.a, inst.b, inst.p
    ib = 1.0 / p + b
    lam, mu, nu = times.lambda_n, times.mu_n, times.nu_n

    s1 = mu * mu + mu * ib * (1.0 - math.exp(p * (mu - 1.0)))
    s2 = (
        nu * nu / 2.0
        - mu * mu / 2.0
        + ib * (nu - mu)
        - (math.exp(-p) / p) * ib * (math.exp(p * nu) - math.exp(p * mu))
    )
    s3 = -nu * nu + lam * nu + (lam - nu) * ib * (1.0 - math.exp(p * (nu - 1.0)))
    s4 = (
        -lam * nu
        + nu
        + ib * (1.0 - lam)
        - (1.0 / p) * (ib - a) * (math.exp(-p * (lam - nu)) - math.exp(-p * (1.0 - nu)))
    )

    total = s1 + s2 + s3 + s4
    q = q_eval(a, b, p, lam, mu, nu)
    if abs(total - q) > 1e-10:
        raise ConsistencyError(f"segment total {total!r} != q {q!r}")
    return s1, s2, s3, s4


def k_star(a: float, b: float, p: float, n: int) -> int:
    """``ceil(n * (1-(2-p)(b-a)) / (1+p(b-a)))``: first index where the upper
    bound on ``phibar`` falls to ``b``.  Positivity needs condition II."""
    if not (2.0 - p) * (b - a) < 1.0:
        raise ParameterError(
            f"condition II fails: (2-p)(b-a) = {(2.0 - p) * (b - a)!r} >= 1"
        )
    return math.ceil(n * (1.0 - (2.0 - p) * (b - a)) / (1.0 + p * (b - a)))


def _lower_bound_tail_sums(eps: float, max_length: int) -> np.ndarray:
    """S(L) = sum_{j=0}^{L-1} ((L-j)/(L+1)) * (1-eps)^j for L = 1..max_length, in order.

    One path for every length: ``sum_j (L-j) q^j`` is the sum over
    ``r = 1..L`` of the partial geometric sums ``sum_{j<r} q^j``, so a nested
    cumulative sum of ``q^j = exp(j * log1p(-eps))`` gives every ``S(L)``
    from positive terms only, with no cancellation at any ``L * eps``.
    """
    s = np.arange(float(max_length))
    s *= math.log1p(-eps)
    np.exp(s, out=s)
    np.cumsum(s, out=s)
    np.cumsum(s, out=s)  # s[L-1] = sum_{j<L} (L-j) q^j
    s /= np.arange(2.0, max_length + 2.0)
    return s


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
    at every size (margin -43 at n = 10^4, -4290 at n = 10^6).
    """
    _require_matching_tables(inst, tables)
    _require_matching_times(inst, times)
    n = inst.n
    a, b, p = inst.a, inst.b, inst.p
    checks = []

    eps = p / n + 1.0 / (n * n)
    coeff = (1.0 + (b - a) * p) / n - a / (n * n)

    k_lo = max(1, times.k_n - 1)
    lower = _lower_bound_tail_sums(eps, n - k_lo)[::-1]  # S(n - k) for k = k_lo .. n-1
    lower *= coeff
    lower += a
    np.subtract(tables.phibar[k_lo:n], lower, out=lower)
    lower_margin = float(np.min(lower, initial=math.inf))
    checks.append(
        DiagnosticCheck(
            "lower_bound", k_lo, n - 1, lower_margin, lower_margin >= -SIGN_TOLERANCE
        )
    )

    upper = np.arange(float(n - times.j_n), 0.0, -1.0)  # n - k for k = j_n .. n-1
    upper /= 2.0
    upper *= 1.0 + (b - a) * p
    upper /= n
    upper += a
    upper -= tables.phibar[times.j_n : n]
    upper_margin = float(np.min(upper, initial=math.inf))
    checks.append(
        DiagnosticCheck(
            "upper_bound", times.j_n, n - 1, upper_margin, upper_margin >= -SIGN_TOLERANCE
        )
    )

    ks_val = k_star(a, b, p, n)
    order_margin = float(min(times.kbar_n - times.k_n, ks_val - times.kbar_n))
    checks.append(
        DiagnosticCheck("ordering", times.k_n, ks_val, order_margin, order_margin >= 0.0)
    )
    sep_margin = float(times.j_n - ks_val)
    checks.append(
        DiagnosticCheck("kstar_below_j", ks_val, times.j_n, sep_margin, sep_margin > 0.0)
    )
    return DiagnosticsReport(checks=tuple(checks))
