"""Certified hardness bound from the interval maximum of ``q``.

The bound on the optimal rule's ratio is ``M(a,b,p) = m / L`` where
``m = max_{nu in [mu*, lambda*]} q(lambda*, mu*, nu)`` and ``L`` is the
large-size expectation of the offline maximum.  The maximum is always
interior: ``q'(lambda*) <= 0`` under condition I, and ``q'(mu*) > 0`` for
every ``a, p > 0`` and ``b > a``.  Proof: ``e^{p(mu* - 1)} = 1/u`` and
``mu* - lambda* = -log(v)/p`` with ``u = 1 + bp`` and ``v = 1 + (b-a)p``, so
``q'(mu*) = log(u/v)/p - a/u = v((1+x) log(1+x) - x)/(pu)`` with
``x = ap/v > 0``, and ``(1+x) log(1+x) > x`` for ``x > 0``.  So ``q'``
changes sign on the interval, and its zero ``nu*`` is located by
bracketing bisection.

Bisection is used deliberately instead of a faster root finder: the error
certificate rests on its bracket guarantee.  Each halving evaluates ``q'``
alone, from one ``exp``.  The returned ``nu_hat`` is the midpoint of the
final bracket, and its half-width is reported as ``nu_error_bound`` (never
larger than ``xtol + |nu_hat| * rtol``).  ``m`` is ``q(nu_hat)`` in the
closed form ``asymptotics._q_at_limits``, free of ``1/p^2`` terms.  Only the
certificate reads ``q''`` and ``q'''``: ``q'`` is convex on the final
bracket, so its endpoint values and tangents prove ``|q'| < 1`` there, and
the same bound then dominates ``|q(nu_hat) - m|``.  The certificate also
checks, once per point, the identities ``(1 + bp) e^{p(lambda* - 1)} =
1 + (b - a)p`` and ``(1 + bp) e^{p(mu* - 1)} = 1`` on which the simplified
``q'`` and ``m`` rest, and it refuses ``p < 8.88e-4``, where ``m``'s
rounding, ``q'(nu_hat)``'s divided by ``p``, exceeds 1e-12, the last of the
12 digits ``rostop bound`` and the sweep print.

:func:`hardness_bound` is the single-point path and the reference.  The
sweep's :func:`_hardness_bounds` runs the same steps on numpy lanes and
returns the same bits; see the comment block that opens that path.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable

import numpy as np

from .asymptotics import (
    _limits,
    _limits_residual,
    _q_at_limits,
    _q_derivatives,
    _q_higher_terms,
    _q_prime,
    _q_prime_terms,
    _where,
    lambda_mu_star,
)
from .dp import ConsistencyError
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
# asymptotics._limits_residual may reach _LIMITS_ROUNDING * (2 + p): a few
# roundings of 1, and those of lambda* and mu* times p.  Measured: at most
# 2.2 * 2^-53 * (2 + p) on feasible points with p from 1e-10 to 100.
_LIMITS_ROUNDING = 16 * 2.0**-53


class BracketError(ValueError):
    """The function does not change sign on the interval, so bisection cannot start."""


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
    case: str  # always "interior": the maximum never sits at an end
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
    grid_points: int  # points where q' is evaluated: always the bracket's two ends


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
            f"no sign change: need fn(lo) > 0 >= fn(hi), got fn(lo)={flo!r}, fn(hi)={fhi!r}"
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
    ``[lo, hi]`` is not inside ``[mu, lam]``, when ``p < 8.88e-4`` (see the
    module docstring), when ``q'`` is not convex there, or when the bound
    reaches 1; :class:`ConsistencyError` when ``lam`` or ``mu`` is off.
    """
    if not mu <= lo <= hi <= lam:
        raise CertificationError(
            f"interval [{lo!r}, {hi!r}] is not inside [mu*, lambda*] = [{mu!r}, {lam!r}]"
        )
    if _QPRIME_ROUNDING / p > 1e-12:
        raise CertificationError(
            f"p = {p!r} is too small: the rounding of q'(nu_hat)/p in m, "
            f"{_QPRIME_ROUNDING / p:.3g}, exceeds 1e-12"
        )
    residual = _limits_residual(a, b, p, lam, mu, math.exp)
    if not residual <= _LIMITS_ROUNDING * (2.0 + p):
        raise ConsistencyError(
            f"limits miss their identities by {residual!r} (are lambda_star and mu_star correct?)"
        )
    q1_lo, q2_lo, q3_lo = _q_derivatives(a, b, p, lam, mu, lo)
    q1_hi, q2_hi, q3_hi = _q_derivatives(a, b, p, lam, mu, hi)
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
) -> tuple[float, float, int, float]:
    """Maximise ``nu -> q(lam, mu, nu)`` over ``[mu, lam] = [mu*, lambda*]``.

    Returns ``(nu_hat, m, iterations, nu_error_bound)``.  ``q'(lam) <= 0``
    is asserted, and ``q'(mu) > 0`` (see the module docstring) is checked
    by :func:`_bisect`, which then bisects the zero of ``q'``; about
    ``log2((lam - mu)/xtol) ~ 42`` halvings suffice at the default
    tolerances.
    """
    u = 1.0 + b * p
    f = lambda nu: _q_prime(a, p, lam, mu, u, nu)[0]
    q1_hi = f(lam)
    if q1_hi > 0.0:
        raise ConsistencyError(
            f"q'(lambda*) = {q1_hi!r} > 0 despite condition I; "
            "this signals a bug in the derivative or the validation"
        )
    nu_hat, iterations, half_width = _bisect(f, mu, lam, xtol, rtol, _MAX_ITER)
    m = _q_at_limits(b, p, mu, nu_hat, f(nu_hat), math.expm1, _where)
    return nu_hat, m, iterations, half_width


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
    lam, mu = prof.lambda_star, prof.mu_star
    nu_hat, m, iterations, nu_err = _maximise_q(a, b, p, lam, mu, xtol, rtol)
    q_err = _qprime_sup(a, b, p, lam, mu, nu_hat - nu_err, nu_hat + nu_err) * nu_err
    return HardnessBound(
        a=a,
        b=b,
        p=p,
        lambda_star=lam,
        mu_star=mu,
        nu_hat=nu_hat,
        m=m,
        M=m / prophet_limit(a, b, p),
        case="interior",
        nu_error_bound=nu_err,
        q_error_bound=q_err,
        iterations=iterations,
        xtol=xtol,
        rtol=rtol,
    )


def certify(bound: HardnessBound) -> ErrorCertificate:
    """Re-derive the error chain of a computed bound.

    Checks ``nu_error_bound <= xtol + |nu_hat| * rtol``, bounds ``sup |q'|``
    on ``[nu_hat - e, nu_hat + e]`` by :func:`_qprime_sup`, and concludes
    ``|q(nu_hat) - max q| <= sup * e < e``.  Raises what :func:`_qprime_sup`
    raises, and :class:`CertificationError` when the first check fails.
    """
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
    )


# ---------------------------------------------------------------- batched path
#
# The functions below run the scalar path over numpy arrays of points, one
# lane per point, all lanes bisected in lockstep.  They evaluate the very
# formulas the scalar path does, given element-wise libm ``exp``, ``expm1``
# and ``log1p`` (numpy's vectorised versions can differ from libm in the last
# bit), ``np.where`` and Python's ``max``/``min`` per element; numpy does the
# + - * / in the same order, so every lane's result is bit-identical to the
# scalar one.  Each check that the scalar path raises on is a boolean mask
# over the lanes, OR-ed into one ``bad`` array, and no lane is ever dropped;
# :func:`_raise_first_bad` re-derives the error of the first bad point
# through the scalar path, so every error is raised, and worded, only there.
#
# The halvings of :func:`_maximise_q_lanes` are the exception: they take
# ``_q_prime_terms`` with numpy's exp (``_fast_exp``), about 35 times cheaper
# per element than libm's through Python, and they decide exactly what libm
# would.  A halving reads only the sign of q1 = fl(c + t), with c = 1 - nu
# and t = (slope - a) e1.  Let _ETA = 2^-48 bound the relative gap between
# the two exps (a test asserts that numpy's is within _ETA/4 of libm's).  On
# [mu*, lambda*], e1 <= 1, so |t| <= t_max = u (lambda* - mu*) + a with
# u = 1 + bp.  Rounding is monotone, so moving e1 by _ETA moves libm's t
# from numpy's by about _ETA |t|, plus a few roundings.  So numpy's sign is
# libm's wherever |q1| > 4 _ETA t_max; the factor 4 leaves three times the
# error of the analysis.  Every other running lane is re-evaluated with libm
# through :func:`_q_prime_lanes`: the last halvings near each root, and
# every halving where u >= 1e300, whose e1 could fall below the smallest
# normal float (its argument lies in [-log(u), 0]).
#
# The allowance _ETA is a measured premise, not a proven one: IEEE leaves
# exp's rounding free, and numpy picks its SIMD exp kernel by CPU.  The
# premise test samples [-0.6, 0], [-2, 0] and [-700, -2]; on numpy 2.4.6
# with the AVX-512 kernels of an x86-64 Xeon, numpy's exp stays within 1 ulp
# of libm's there, a 16th of _ETA.  A platform whose numpy exp strays
# further fails that test.


def _libm(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.tolist()), float, x.size)


_exp = partial(_libm, math.exp)
_expm1 = partial(_libm, math.expm1)
_log = partial(_libm, math.log)
_log1p = partial(_libm, math.log1p)
# The halvings' exp, and the relative gap to libm's exp that their guard
# allows: 16 ulps of 1 (see the comment block above).
_fast_exp = np.exp
_ETA = 2.0**-48


def _pymax(x, y):
    """Python's ``max(x, y)`` per element, ties and NaN resolved as it does."""
    return np.where(y > x, y, x)


def _pymin(x, y):
    """Python's ``min(x, y)`` per element, ties and NaN resolved as it does."""
    return np.where(y < x, y, x)


def _raise_first_bad(bad, a, b, p, scalar: Callable) -> None:
    """Re-run the first point flagged in ``bad`` through ``scalar`` and raise its error.

    The message names the point.  If ``scalar`` passes there, the lanes and
    the scalar disagree, which raises :class:`ConsistencyError`.
    """
    j = int(np.argmax(bad))
    point = (a[j].item(), b[j].item(), p[j].item())
    prefix = f"at (a, b, p) = {point!r}: "
    try:
        scalar(*point)
    except (
        ParameterError, ConsistencyError, BracketError, MaxIterationsError, CertificationError
    ) as exc:
        raise type(exc)(prefix + str(exc)) from exc
    raise ConsistencyError(prefix + f"the batched checks fail where {scalar.__name__} passes")


def _q_prime_lanes(a, b, p, lam, mu_star, nu):
    """:func:`~rostop.asymptotics._q_prime` per lane: ``(q1, e1, slope, bad)``,
    ``bad`` where the scalar raises: ``nu`` outside ``[mu*, lambda*]``."""
    q1, e1, slope = _q_prime_terms(a, p, lam, 1.0 + b * p, nu, _exp)
    return q1, e1, slope, ~((mu_star <= nu) & (nu <= lam))


def _q_derivatives_lanes(a, b, p, lam, mu_star, nu):
    """:func:`~rostop.asymptotics._q_derivatives` per lane: ``(q1, q2, q3, bad)``."""
    q1, e1, slope, bad = _q_prime_lanes(a, b, p, lam, mu_star, nu)
    q2, q3 = _q_higher_terms(a, b, p, e1, slope)
    return q1, q2, q3, bad


def _maximise_q_lanes(a, b, p, lam, mu, xtol, rtol):
    """:func:`_maximise_q` per lane, with every lane bisected in lockstep.

    Returns ``(nu_hat, m, iterations, nu_error_bound, bad)``; the entries of
    bad lanes are meaningless.  Like the scalar, it evaluates ``q'`` alone.
    The halvings run on :data:`_fast_exp`, and a lane whose sign the guard
    cannot decide is re-evaluated through :func:`_q_prime_lanes`.
    """
    q1_hi, _, _, bad = _q_prime_lanes(a, b, p, lam, mu, lam)
    q1_lo, _, _, bad_lo = _q_prime_lanes(a, b, p, lam, mu, mu)
    bad |= bad_lo | ~((q1_lo > 0.0) & (0.0 >= q1_hi))
    # The guard of the halvings on _fast_exp; see the comment block above.
    u = 1.0 + b * p
    sign_slack = np.where(u < 1e300, 4.0 * _ETA * (u * (lam - mu) + a), np.inf)
    # _bisect in lockstep: each lane stops on its own width test, so its
    # halving count is the scalar's; finished and bad lanes stay frozen.
    lo, hi = mu.copy(), lam.copy()
    iterations = np.zeros(a.size, int)
    running = ~bad
    for halvings in range(_MAX_ITER + 1):
        mid = 0.5 * (lo + hi)
        running &= ~(hi - lo <= xtol + np.abs(mid) * rtol)
        if not running.any() or halvings == _MAX_ITER:
            break
        iterations += running
        q1 = _q_prime_terms(a, p, lam, u, mid, _fast_exp)[0]
        sure = (np.abs(q1) > sign_slack) & (mu <= mid) & (mid <= lam)  # range check: no exp
        doubt = np.flatnonzero(running & ~sure)
        if doubt.size:
            q1[doubt], _, _, bad_mid = _q_prime_lanes(
                a[doubt], b[doubt], p[doubt], lam[doubt], mu[doubt], mid[doubt]
            )
            failed = doubt[bad_mid]
            bad[failed], running[failed] = True, False
        up = q1 > 0.0
        np.copyto(lo, mid, where=running & up)
        np.copyto(hi, mid, where=running & ~up)
    bad |= running  # the iteration budget is spent
    m = _q_at_limits(b, p, mu, mid, _q_prime_terms(a, p, lam, u, mid, _exp)[0], _expm1, np.where)
    return mid, m, iterations, 0.5 * (hi - lo), bad


def _qprime_sup_lanes(a, b, p, lam, mu, lo, hi):
    """:func:`_qprime_sup` per lane: ``(sup, bad)``."""
    q1_lo, q2_lo, q3_lo, bad_lo = _q_derivatives_lanes(a, b, p, lam, mu, lo)
    q1_hi, q2_hi, q3_hi, bad_hi = _q_derivatives_lanes(a, b, p, lam, mu, hi)
    sup = _sup_from_ends(q1_lo, q2_lo, q1_hi, q2_hi, hi - lo, _pymax, _pymin)
    residual = _limits_residual(a, b, p, lam, mu, _exp)
    bad = (
        ~((mu <= lo) & (lo <= hi) & (hi <= lam))
        | (_QPRIME_ROUNDING / p > 1e-12)
        | ~(residual <= _LIMITS_ROUNDING * (2.0 + p))
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
    nu_hat, m, iterations, nu_err, bad = _maximise_q_lanes(
        a, b, p, lam, mu, DEFAULT_XTOL, DEFAULT_RTOL
    )
    sup, bad_sup = _qprime_sup_lanes(a, b, p, lam, mu, nu_hat - nu_err, nu_hat + nu_err)
    bad |= bad_sup | ~((a > 0) & (b > 0) & (p > 0))
    if bad.any():
        _raise_first_bad(bad, a, b, p, hardness_bound)
    return {
        "lambda_star": lam,
        "mu_star": mu,
        "nu_hat": nu_hat,
        "m": m,
        "M": m / _limit(a, b, p, _exp),
        "case": np.full(a.size, "interior"),
        "nu_error_bound": nu_err,
        "q_error_bound": sup * nu_err,
        "iterations": iterations,
    }
