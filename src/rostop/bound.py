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
runs the same steps and checks over numpy arrays of validated points: all
lanes bisect in lockstep, each stopping on the scalar's own width test, and
every result equals the scalar's bit for bit.  A failing check raises the
exception the scalar raises, for the first failing point in input order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .asymptotics import ConsistencyError, lambda_mu_star, q_derivatives, q_eval
from .instance import ParameterError
from .prophet import prophet_limit

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
        return json.dumps(
            {
                "a": self.a,
                "b": self.b,
                "p": self.p,
                "lambda_star": self.lambda_star,
                "mu_star": self.mu_star,
                "nu_hat": self.nu_hat,
                "m": self.m,
                "M": self.M,
                "case": self.case,
                "nu_error_bound": self.nu_error_bound,
                "q_error_bound": self.q_error_bound,
                "iterations": self.iterations,
            }
        )


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
    w = hi - lo
    upper = max(q1_lo, q1_hi)
    lower = max(q1_lo + min(0.0, q2_lo) * w, q1_hi - max(0.0, q2_hi) * w)
    sup = max(upper, -lower) + _QPRIME_ROUNDING
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
# The functions below repeat the scalar path over numpy arrays of points, one
# lane per point.  numpy does only + - * / and comparisons, in the scalar
# expressions' order, so every lane's result is bit-identical to the scalar
# one; exp and log1p go through libm element by element, because numpy's
# vectorised versions can differ from it in the last bit.  A lane that fails
# a check is recorded with the exception the scalar raises there and is
# evaluated no further, exactly as the scalar stops at its first failure.


def _libm(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _pymax(x, y):
    """Python's ``max(x, y)`` per element, ties and NaN resolved as it does."""
    return np.where(y > x, y, x)


def _pymin(x, y):
    """Python's ``min(x, y)`` per element, ties and NaN resolved as it does."""
    return np.where(y < x, y, x)


class _Lanes(NamedTuple):
    """Per-lane inputs of the batched bound; ``idx`` numbers the lanes in input order."""

    idx: np.ndarray
    a: np.ndarray
    b: np.ndarray
    p: np.ndarray
    lam: np.ndarray
    mu: np.ndarray  # left end of the maximisation interval
    mu_star: np.ndarray  # left end of the domain that q_derivatives checks

    def take(self, keep: np.ndarray) -> "_Lanes":
        return _Lanes(*(x[keep] for x in self))


def _keep(keep: np.ndarray, lanes: _Lanes, *arrays: np.ndarray) -> tuple:
    return (lanes.take(keep), *(x[keep] for x in arrays))


def _drop(
    lanes: _Lanes,
    bad: np.ndarray,
    failures: dict[int, Exception],
    error: type[Exception],
    message: str,
    *values: np.ndarray,
) -> np.ndarray:
    """Record ``error`` for every lane where ``bad`` holds; return the mask of the others.

    The message is the scalar's, formatted with the lane's ``values`` and
    prefixed with the lane's point.
    """
    for j in np.flatnonzero(bad).tolist():
        point = (lanes.a[j].item(), lanes.b[j].item(), lanes.p[j].item())
        text = message.format(*(v[j].item() for v in values))
        failures.setdefault(lanes.idx[j].item(), error(f"at (a, b, p) = {point!r}: {text}"))
    return ~bad


def _q_derivatives_lanes(
    lanes: _Lanes, nu: np.ndarray, failures: dict[int, Exception]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`q_derivatives` per lane: ``(q1, q2, q3, keep)``.

    Lanes where ``nu`` leaves ``[mu*, lambda*]``, or where the simplified and
    unsimplified ``q'`` disagree beyond 1e-12, are recorded in ``failures``
    and left out of ``keep``.
    """
    a, b, p, lam = lanes.a, lanes.b, lanes.p, lanes.lam
    keep = _drop(
        lanes, ~((lanes.mu_star <= nu) & (nu <= lam)), failures, ParameterError,
        "nu={!r} outside [mu*, lambda*] = [{!r}, {!r}]", nu, lanes.mu_star, lam,
    )
    e1 = _libm(math.exp, p * (nu - 1.0))
    slope = (1.0 + b * p) * (nu - lam)  # bp1 * (nu - lambda_star) in the scalar
    q1 = 1.0 - nu + (slope - a) * e1
    q1_unsimplified = (
        1.0
        - nu
        + ((1.0 / p + b) + slope - a) * e1
        - (1.0 / p + b - a) * _libm(math.exp, p * (nu - lam))
    )
    keep &= _drop(
        lanes, keep & (np.abs(q1 - q1_unsimplified) > 1e-12), failures, ConsistencyError,
        "simplified and unsimplified q' disagree: {!r} vs {!r} (is lambda_star correct?)",
        q1, q1_unsimplified,
    )
    q2 = -1.0 + (1.0 + p * (b - a + slope)) * e1
    q3 = p * (2.0 + p * (2.0 * b - a + slope)) * e1
    return q1, q2, q3, keep


def _q_eval_lanes(lanes: _Lanes, nu: np.ndarray) -> np.ndarray:
    """:func:`q_eval` per lane at ``(lambda*, mu, nu)``."""
    a, b, p, lam, mu = lanes.a, lanes.b, lanes.p, lanes.lam, lanes.mu
    ib = 1.0 / p + b
    return (
        mu * mu / 2.0
        - nu * nu / 2.0
        + nu
        + ib
        + (1.0 / p - mu) * ib * _libm(math.exp, p * (mu - 1.0))
        + (ib * (nu - lam) - a / p) * _libm(math.exp, p * (nu - 1.0))
        - (1.0 / p) * (ib - a) * _libm(math.exp, p * (nu - lam))
    )


def _maximise_q_lanes(
    lanes: _Lanes, xtol: float, rtol: float, failures: dict[int, Exception]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_maximise_q` per lane, with every interior lane bisected in lockstep.

    ``lanes.idx`` must be ``0..size-1``.  Returns arrays over all lanes
    ``(interior, nu_hat, m, iterations, nu_error_bound)``; entries of lanes
    recorded in ``failures`` are meaningless.
    """
    size = lanes.idx.size
    interior = np.zeros(size, bool)
    nu_hat, m, nu_err = np.zeros(size), np.zeros(size), np.zeros(size)
    iterations = np.zeros(size, int)

    q1_hi, _, _, keep = _q_derivatives_lanes(lanes, lanes.lam, failures)
    keep &= _drop(
        lanes, keep & (q1_hi > 0.0), failures, ConsistencyError,
        "q'(lambda*) = {!r} > 0 despite condition I; "
        "this signals a bug in the derivative or the validation", q1_hi,
    )
    lanes, q1_hi = _keep(keep, lanes, q1_hi)
    q1_lo, _, _, keep = _q_derivatives_lanes(lanes, lanes.mu, failures)
    lanes, q1_lo, q1_hi = _keep(keep, lanes, q1_lo, q1_hi)

    monotone = q1_lo <= 0.0
    endpoint = lanes.take(monotone)
    nu_hat[endpoint.idx] = endpoint.mu
    m[endpoint.idx] = _q_eval_lanes(endpoint, endpoint.mu)

    lanes, q1_lo, q1_hi = _keep(~monotone, lanes, q1_lo, q1_hi)
    keep = _drop(
        lanes, ~((q1_lo > 0.0) & (0.0 >= q1_hi)), failures, BracketError,
        "no sign change: fn(lo)={!r}, fn(hi)={!r}; "
        "the interval maximum sits at an endpoint (monotone case)", q1_lo, q1_hi,
    )
    lanes = lanes.take(keep)
    interior[lanes.idx] = True
    finished = np.zeros(size, bool)
    # _bisect in lockstep: each lane stops on its own width test, so its
    # halving count is the scalar's.
    active, lo, hi = lanes, lanes.mu, lanes.lam
    halvings = 0
    while True:
        mid = 0.5 * (lo + hi)
        done = hi - lo <= xtol + np.abs(mid) * rtol
        j = active.idx[done]
        nu_hat[j], iterations[j], nu_err[j] = mid[done], halvings, 0.5 * (hi[done] - lo[done])
        finished[j] = True
        active, lo, hi, mid = _keep(~done, active, lo, hi, mid)
        if not active.idx.size:
            break
        if halvings >= _MAX_ITER:
            _drop(
                active, np.ones(active.idx.size, bool), failures, MaxIterationsError,
                f"tolerance not reached after {_MAX_ITER} halvings (width {{!r}})", hi - lo,
            )
            break
        halvings += 1
        q1, _, _, keep = _q_derivatives_lanes(active, mid, failures)
        up = q1 > 0.0
        active, lo, hi = _keep(keep, active, np.where(up, mid, lo), np.where(up, hi, mid))
    bisected = lanes.take(finished[lanes.idx])
    m[bisected.idx] = _q_eval_lanes(bisected, nu_hat[bisected.idx])
    return interior, nu_hat, m, iterations, nu_err


def _qprime_sup_lanes(
    lanes: _Lanes, lo: np.ndarray, hi: np.ndarray, failures: dict[int, Exception]
) -> tuple[_Lanes, np.ndarray]:
    """:func:`_qprime_sup` per lane: the lanes that certify and their bounds."""
    keep = _drop(
        lanes, ~((lanes.mu <= lo) & (lo <= hi) & (hi <= lanes.lam)), failures,
        CertificationError, "interval [{!r}, {!r}] is not inside [mu*, lambda*] = [{!r}, {!r}]",
        lo, hi, lanes.mu, lanes.lam,
    )
    lanes, lo, hi = _keep(keep, lanes, lo, hi)
    q1_lo, q2_lo, q3_lo, keep = _q_derivatives_lanes(lanes, lo, failures)
    lanes, lo, hi, q1_lo, q2_lo, q3_lo = _keep(keep, lanes, lo, hi, q1_lo, q2_lo, q3_lo)
    q1_hi, q2_hi, q3_hi, keep = _q_derivatives_lanes(lanes, hi, failures)
    lanes, lo, hi, q1_lo, q2_lo, q3_lo, q1_hi, q2_hi, q3_hi = _keep(
        keep, lanes, lo, hi, q1_lo, q2_lo, q3_lo, q1_hi, q2_hi, q3_hi
    )
    keep = _drop(
        lanes, ~((q3_lo > 0.0) & (q3_hi > 0.0)), failures, CertificationError,
        "q''' is not positive at both ends ({!r}, {!r}), "
        "so q' is not proved convex on the interval", q3_lo, q3_hi,
    )
    w = hi - lo
    upper = _pymax(q1_lo, q1_hi)
    lower = _pymax(q1_lo + _pymin(0.0, q2_lo) * w, q1_hi - _pymax(0.0, q2_hi) * w)
    sup = _pymax(upper, -lower) + _QPRIME_ROUNDING
    keep &= _drop(
        lanes, keep & (sup >= 1.0), failures, CertificationError,
        "|q'| may reach {!r} >= 1 on the interval; error chain does not close", sup,
    )
    return _keep(keep, lanes, sup)


def _hardness_bounds(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> dict[str, np.ndarray]:
    """:func:`hardness_bound` at the default tolerances for every point ``(a[i], b[i], p[i])``.

    The points must have passed :func:`~rostop.instance.validate`.  Returns
    one array per computed :class:`HardnessBound` field, each entry equal to
    the scalar one bit for bit; every check of the scalar path runs on every
    lane.  If any lane fails one, raises the exception the scalar raises for
    the first failing point in input order, with the point named in its
    message.
    """
    failures: dict[int, Exception] = {}
    log_bp = _libm(math.log1p, b * p)
    lam = 1.0 + (_libm(math.log1p, (b - a) * p) - log_bp) / p
    mu = 1.0 - log_bp / p
    lanes = _Lanes(np.arange(a.size), a, b, p, lam, mu, mu)
    interior, nu_hat, m, iterations, nu_err = _maximise_q_lanes(
        lanes, DEFAULT_XTOL, DEFAULT_RTOL, failures
    )
    alive = np.ones(a.size, bool)
    alive[list(failures)] = False
    cert = lanes.take(interior & alive)
    half = nu_err[cert.idx]
    cert, sup = _qprime_sup_lanes(
        cert, nu_hat[cert.idx] - half, nu_hat[cert.idx] + half, failures
    )
    q_err = np.zeros(a.size)
    q_err[cert.idx] = sup * nu_err[cert.idx]
    alive[list(failures)] = False
    _drop(
        lanes, alive & ~((a > 0) & (b > 0) & (p > 0)), failures, ParameterError,
        "a, b, p must be positive",
    )
    if failures:
        raise failures[min(failures)]
    e = _libm(math.exp, -p)
    return {
        "lambda_star": lam,
        "mu_star": mu,
        "nu_hat": nu_hat,
        "m": m,
        "M": m / (1.0 + b * (1.0 - e) + a * e),
        "case": np.where(interior, "interior", "monotone"),
        "nu_error_bound": nu_err,
        "q_error_bound": q_err,
        "iterations": iterations,
    }
