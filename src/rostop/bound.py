"""Certified hardness bound from the interval maximum of ``q``.

The bound on the optimal rule's ratio is ``M(a,b,p) = m / L`` where
``m = max_{nu in [mu*, lambda*]} q(lambda*, mu*, nu)`` and ``L`` is the
large-size expectation of the offline maximum.  Since ``q'`` is convex on
the interval and ``q'(lambda*) <= 0`` under condition I, only two shapes
are possible: ``q'`` nonpositive throughout (maximum at ``mu*``) or a
single interior zero ``nu*`` located by bracketing bisection.

Bisection is used deliberately instead of a faster root finder: the error
certificate rests on its bracket guarantee.  The returned ``nu_hat`` is the
midpoint of the final bracket, so ``|nu_hat - nu*|`` is at most half the
final width; that half-width is reported as ``nu_error_bound`` (it is never
larger than ``xtol + |nu_hat| * rtol``).  ``q'`` is convex on the final
bracket (third derivative positive at both ends), so its endpoint values
and tangents prove ``|q'| < 1`` there, and the same bound then dominates
``|q(nu_hat) - m|``.

:func:`hardness_bound` is the single-point path and the reference.  The
sweep uses the private batched evaluator :func:`_hardness_bounds`, which
runs the same steps over numpy arrays of validated points: all lanes bisect
in lockstep, each stopping on the scalar's own width test.  The lanes share
every formula with the scalar path, so every result equals the scalar's bit
for bit; they differ only in how a check reports.  Each scalar check is a
mask over the lanes; if any lane fails one, the first such point in input
order is re-run through :func:`hardness_bound`, so every error is raised,
and worded, only there.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable

import numpy as np

from .asymptotics import ConsistencyError, _limits, _q, _q_terms
from .asymptotics import lambda_mu_star, q_derivatives, q_eval
from .instance import ParameterError
from .prophet import _limit, prophet_limit

__all__ = [
    "BracketError",
    "MaxIterationsError",
    "CertificationError",
    "HardnessBound",
    "ErrorCertificate",
    "hardness_bound",
    "certify",
]

DEFAULT_XTOL = 1e-13
DEFAULT_RTOL = 1e-14
_MAX_ITER = 200
# Float-evaluation allowance on the closed-form sup |q'|: near its root
# q' = 1 - nu + ... cancels, so its rounding error is about one ulp of 1.
_QPRIME_ROUNDING = 4 * 2.0**-52


class BracketError(ValueError):
    """The function does not change sign on the interval; use the monotone
    endpoint maximum instead of bisection."""


class MaxIterationsError(RuntimeError):
    """Bisection failed to meet tolerance within the iteration budget."""


class CertificationError(RuntimeError):
    """|q'| < 1 on the final bracket cannot be proved; the error chain does not close."""


@dataclass(frozen=True)
class HardnessBound:
    """Result of the maximisation with its numeric error certificate."""

    a: float
    b: float
    p: float
    lambda_star: float
    mu_star: float
    nu_hat: float
    m: float
    M: float
    case: str  # "interior" or "monotone"
    nu_error_bound: float
    q_error_bound: float
    iterations: int
    xtol: float = DEFAULT_XTOL
    rtol: float = DEFAULT_RTOL

    def to_json(self) -> str:
        fields = asdict(self)
        del fields["xtol"], fields["rtol"]
        return json.dumps(fields)


@dataclass(frozen=True)
class ErrorCertificate:
    """Re-derived error chain for a computed bound."""

    nu_error_bound: float
    qprime_sup: float
    q_error_bound: float
    grid_points: int  # points where q' is evaluated: the two ends, or 0 if monotone
    qprime_convex: bool
    trivially_exact: bool


def _bisect(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float,
    rtol: float,
    max_iter: int,
) -> tuple[float, int, float]:
    """Bracketing bisection for ``fn`` with ``fn(lo) > 0 >= fn(hi)``.

    Terminates once the bracket width is at most ``xtol + |mid| * rtol``
    and returns ``(midpoint, halvings, final half-width)``.  The sign
    invariant ``fn(lo) > 0 >= fn(hi)`` holds throughout.
    """
    flo, fhi = fn(lo), fn(hi)
    if not (flo > 0.0 >= fhi):
        raise BracketError(
            f"no sign change: fn(lo)={flo!r}, fn(hi)={fhi!r}; "
            "the interval maximum sits at an endpoint (monotone case)"
        )
    iterations = 0
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol + abs(mid) * rtol:
            return mid, iterations, 0.5 * (hi - lo)
        if iterations >= max_iter:
            raise MaxIterationsError(
                f"tolerance not reached after {max_iter} halvings (width {hi - lo!r})"
            )
        iterations += 1
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def _sup_from_ends(q1_lo, q2_lo, q1_hi, q2_hi, w, max, min):
    """:func:`_qprime_sup`'s bound from ``q'`` and ``q''`` at the ends of an interval
    of width ``w``; ``max`` and ``min`` are passed in like ``asymptotics._q``'s ``exp``."""
    upper = max(q1_lo, q1_hi)
    lower = max(q1_lo + min(0.0, q2_lo) * w, q1_hi - max(0.0, q2_hi) * w)
    return max(upper, -lower) + _QPRIME_ROUNDING


def _qprime_sup(
    a: float, b: float, p: float, lam: float, mu: float, lo: float, hi: float
) -> float:
    """Proven upper bound on ``sup |q'|`` over ``[lo, hi]`` from its two ends.

    ``q''' = p e^{p(nu-1)} (2 + p(2b - a + (1+bp)(nu - lambda*)))`` and the
    last factor is linear in ``nu``, so ``q''' > 0`` at both ends makes
    ``q'`` convex on the whole interval.  A convex function peaks at an
    endpoint and lies above both endpoint tangents, which bounds ``q'``
    from above and below.  Raises :class:`CertificationError` when
    ``[lo, hi]`` is not inside ``[mu, lam]``, when ``q'`` is not convex
    there, or when the bound reaches 1.
    """
    if not mu <= lo <= hi <= lam:
        raise CertificationError(
            f"interval [{lo!r}, {hi!r}] is not inside [mu*, lambda*] = [{mu!r}, {lam!r}]"
        )
    q1_lo, q2_lo, q3_lo = q_derivatives(a, b, p, lam, lo)
    q1_hi, q2_hi, q3_hi = q_derivatives(a, b, p, lam, hi)
    if not (q3_lo > 0.0 and q3_hi > 0.0):
        raise CertificationError(
            f"q''' is not positive at both ends ({q3_lo!r}, {q3_hi!r}), "
            "so q' is not proved convex on the interval"
        )
    sup = _sup_from_ends(q1_lo, q2_lo, q1_hi, q2_hi, hi - lo, max, min)
    if sup >= 1.0:
        raise CertificationError(
            f"|q'| may reach {sup!r} >= 1 on the interval; error chain does not close"
        )
    return sup


def _maximise_q(
    a: float,
    b: float,
    p: float,
    lam: float,
    mu: float,
    xtol: float,
    rtol: float,
) -> tuple[str, float, float, int, float]:
    """Maximise ``nu -> q(lam, mu, nu)`` over ``[mu, lam]``.

    Returns ``(case, nu_hat, m, iterations, nu_error_bound)``.  ``q'`` must
    be nonincreasing-then-at-most-zero in the convex sense established on
    the interval: ``q'(lam) <= 0`` is asserted, and ``q'(mu) <= 0`` selects
    the monotone endpoint case.  Otherwise the interior zero of ``q'`` is
    bisected; about ``log2((lam - mu)/xtol) ~ 42`` halvings suffice at the
    default tolerances.
    """
    q1_hi = q_derivatives(a, b, p, lam, lam)[0]
    if q1_hi > 0.0:
        raise ConsistencyError(
            f"q'(lambda*) = {q1_hi!r} > 0 despite condition I; "
            "this signals a bug in the derivative or the validation"
        )
    q1_lo = q_derivatives(a, b, p, lam, mu)[0]
    if q1_lo <= 0.0:
        # q is nonincreasing on the whole interval: maximum at the left end,
        # no root finding and hence no numerical error to certify.
        return "monotone", mu, q_eval(a, b, p, lam, mu, mu), 0, 0.0
    f = lambda nu: q_derivatives(a, b, p, lam, nu)[0]
    nu_hat, iterations, half_width = _bisect(f, mu, lam, xtol, rtol, _MAX_ITER)
    return "interior", nu_hat, q_eval(a, b, p, lam, mu, nu_hat), iterations, half_width


def hardness_bound(
    a: float,
    b: float,
    p: float,
    xtol: float = DEFAULT_XTOL,
    rtol: float = DEFAULT_RTOL,
) -> HardnessBound:
    """Full bound procedure: limits, interval maximum of ``q``, ratio, certificate.

    Deterministic: identical inputs give bit-identical results.  Raises
    :class:`ParameterError` when ``xtol`` or ``rtol`` is NaN or negative.
    """
    if not (xtol >= 0.0 and rtol >= 0.0):
        raise ParameterError(
            f"xtol and rtol must be nonnegative numbers, got xtol={xtol!r}, rtol={rtol!r}"
        )
    prof = lambda_mu_star(a, b, p)
    case, nu_hat, m, iterations, nu_err = _maximise_q(
        a, b, p, prof.lambda_star, prof.mu_star, xtol, rtol
    )
    q_err = 0.0
    if case == "interior":
        lo, hi = nu_hat - nu_err, nu_hat + nu_err
        q_err = _qprime_sup(a, b, p, prof.lambda_star, prof.mu_star, lo, hi) * nu_err
    return HardnessBound(
        a=a,
        b=b,
        p=p,
        lambda_star=prof.lambda_star,
        mu_star=prof.mu_star,
        nu_hat=nu_hat,
        m=m,
        M=m / prophet_limit(a, b, p),
        case=case,
        nu_error_bound=nu_err,
        q_error_bound=q_err,
        iterations=iterations,
        xtol=xtol,
        rtol=rtol,
    )


def certify(bound: HardnessBound) -> ErrorCertificate:
    """Re-derive the error chain of a computed bound.

    Interior case: checks ``nu_error_bound <= xtol + |nu_hat| * rtol``,
    proves ``q'`` convex on ``[nu_hat - e, nu_hat + e]`` (third derivative
    positive at both ends), bounds ``sup |q'|`` there in closed form from
    ``q'`` and ``q''`` at the two ends, and concludes
    ``|q(nu_hat) - max q| <= sup * e < e``.  Raises
    :class:`CertificationError` when the interval leaves ``[mu*, lambda*]``,
    when convexity fails, or when ``sup >= 1``.

    Monotone case: the maximiser is the closed-form endpoint, so the
    certificate is trivially exact.
    """
    if bound.case == "monotone":
        return ErrorCertificate(
            nu_error_bound=0.0,
            qprime_sup=0.0,
            q_error_bound=0.0,
            grid_points=0,
            qprime_convex=True,
            trivially_exact=True,
        )
    e = bound.nu_error_bound
    claim = bound.xtol + abs(bound.nu_hat) * bound.rtol
    if not e <= claim:
        raise CertificationError(
            f"nu_error_bound {e!r} exceeds the bisection guarantee {claim!r}"
        )
    lo, hi = bound.nu_hat - e, bound.nu_hat + e
    sup = _qprime_sup(bound.a, bound.b, bound.p, bound.lambda_star, bound.mu_star, lo, hi)
    return ErrorCertificate(
        nu_error_bound=e,
        qprime_sup=sup,
        q_error_bound=sup * e,
        grid_points=2,
        qprime_convex=True,
        trivially_exact=False,
    )


# ---------------------------------------------------------------- batched path
#
# The functions below run the scalar path over numpy arrays of points, one
# lane per point.  They evaluate the very formulas the scalar path does
# (``asymptotics._limits``, ``_q`` and ``_q_terms``, ``prophet._limit`` and
# :func:`_sup_from_ends`), given element-wise libm ``exp`` and ``log1p``
# (numpy's vectorised versions can differ from libm in the last bit) and
# Python's ``max``/``min`` per element; numpy does the + - * / in the same
# order, so every lane's result is bit-identical to the scalar one.  The two
# paths differ only in how a check reports: each check that the scalar path
# raises on is a boolean mask over the lanes, OR-ed into one ``bad`` array,
# and no lane is ever dropped.  The error itself is re-derived by
# :func:`hardness_bound` for the first bad point.


def _libm(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.tolist()), float, x.size)


_exp = partial(_libm, math.exp)
_log1p = partial(_libm, math.log1p)


def _pymax(x, y):
    """Python's ``max(x, y)`` per element, ties and NaN resolved as it does."""
    return np.where(y > x, y, x)


def _pymin(x, y):
    """Python's ``min(x, y)`` per element, ties and NaN resolved as it does."""
    return np.where(y < x, y, x)


def _q_derivatives_lanes(a, b, p, lam, mu_star, nu):
    """:func:`q_derivatives` per lane: ``(q1, q2, q3, bad)``.

    ``bad`` marks the lanes where the scalar raises: ``nu`` outside
    ``[mu*, lambda*]``, or simplified and unsimplified ``q'`` apart by more
    than 1e-12.
    """
    q1, q1_unsimplified, q2, q3 = _q_terms(a, b, p, lam, nu, _exp)
    bad = ~((mu_star <= nu) & (nu <= lam)) | (np.abs(q1 - q1_unsimplified) > 1e-12)
    return q1, q2, q3, bad


def _maximise_q_lanes(a, b, p, lam, mu_star, mu, xtol, rtol):
    """:func:`_maximise_q` per lane, with every interior lane bisected in lockstep.

    ``mu`` is the left end of the maximisation interval and ``mu_star`` that
    of the domain :func:`q_derivatives` checks; they differ only when a test
    restricts the interval.  Returns ``(interior, nu_hat, m, iterations,
    nu_error_bound, bad)``; the entries of bad lanes are meaningless.
    """
    q1_hi, _, _, bad = _q_derivatives_lanes(a, b, p, lam, mu_star, lam)
    q1_lo, _, _, bad_lo = _q_derivatives_lanes(a, b, p, lam, mu_star, mu)
    bad |= (q1_hi > 0.0) | bad_lo
    interior = ~(q1_lo <= 0.0)
    bad |= interior & ~((q1_lo > 0.0) & (0.0 >= q1_hi))
    # _bisect in lockstep: each lane stops on its own width test, so its
    # halving count is the scalar's; finished and bad lanes stay frozen.
    lo, hi = mu, lam
    iterations = np.zeros(a.size, int)
    running = interior & ~bad
    for halvings in range(_MAX_ITER + 1):
        mid = 0.5 * (lo + hi)
        running &= ~(hi - lo <= xtol + np.abs(mid) * rtol)
        if not running.any() or halvings == _MAX_ITER:
            break
        iterations += running
        q1, _, _, bad_mid = _q_derivatives_lanes(a, b, p, lam, mu_star, mid)
        bad |= running & bad_mid
        running &= ~bad
        up = q1 > 0.0
        lo = np.where(running & up, mid, lo)
        hi = np.where(running & ~up, mid, hi)
    bad |= running  # the iteration budget is spent
    nu_hat = np.where(interior, mid, mu)
    nu_err = np.where(interior, 0.5 * (hi - lo), 0.0)
    m = _q(a, b, p, lam, mu, nu_hat, _exp)
    return interior, nu_hat, m, iterations, nu_err, bad


def _qprime_sup_lanes(a, b, p, lam, mu, lo, hi):
    """:func:`_qprime_sup` per lane: ``(sup, bad)``."""
    q1_lo, q2_lo, q3_lo, bad_lo = _q_derivatives_lanes(a, b, p, lam, mu, lo)
    q1_hi, q2_hi, q3_hi, bad_hi = _q_derivatives_lanes(a, b, p, lam, mu, hi)
    sup = _sup_from_ends(q1_lo, q2_lo, q1_hi, q2_hi, hi - lo, _pymax, _pymin)
    bad = (
        ~((mu <= lo) & (lo <= hi) & (hi <= lam))
        | bad_lo
        | bad_hi
        | ~((q3_lo > 0.0) & (q3_hi > 0.0))
        | (sup >= 1.0)
    )
    return sup, bad


def _hardness_bounds(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> dict[str, np.ndarray]:
    """:func:`hardness_bound` at the default tolerances for every point ``(a[i], b[i], p[i])``.

    The points must have passed :func:`~rostop.instance.validate`.  Returns
    one array per computed :class:`HardnessBound` field, each entry equal to
    the scalar one bit for bit; every check of the scalar path runs on every
    lane.  If any lane fails one, the first such point in input order is
    re-run through :func:`hardness_bound` and its exception is raised with
    the point named in its message.
    """
    lam, mu = _limits(a, b, p, _log1p)
    interior, nu_hat, m, iterations, nu_err, bad = _maximise_q_lanes(
        a, b, p, lam, mu, mu, DEFAULT_XTOL, DEFAULT_RTOL
    )
    sup, bad_sup = _qprime_sup_lanes(a, b, p, lam, mu, nu_hat - nu_err, nu_hat + nu_err)
    bad |= (interior & bad_sup) | ~((a > 0) & (b > 0) & (p > 0))
    if bad.any():
        j = int(np.argmax(bad))
        point = (a[j].item(), b[j].item(), p[j].item())
        prefix = f"at (a, b, p) = {point!r}: "
        try:
            hardness_bound(*point)
        except (
            ParameterError, ConsistencyError, BracketError, MaxIterationsError, CertificationError
        ) as exc:
            raise type(exc)(prefix + str(exc)) from exc
        raise ConsistencyError(prefix + "the batched checks fail where hardness_bound passes")
    return {
        "lambda_star": lam,
        "mu_star": mu,
        "nu_hat": nu_hat,
        "m": m,
        "M": m / _limit(a, b, p, _exp),
        "case": np.where(interior, "interior", "monotone"),
        "nu_error_bound": nu_err,
        "q_error_bound": np.where(interior, sup * nu_err, 0.0),
        "iterations": iterations,
    }
