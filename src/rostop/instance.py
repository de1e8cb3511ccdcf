"""Hard-instance family for random-order stopping.

An instance of size ``n`` consists of ``n`` iid copies of a three-point
random value ``V`` plus one constant value ``a``, shown to the stopper in
uniform random order.  ``V`` takes the value ``n`` with mass ``1/n^2``, a
fixed value ``b`` with mass ``p/n`` and ``0`` with the remaining mass.

Feasibility of a parameter triple ``(a, b, p)`` means: the basic ordering
``0 < a < 1 < b`` with ``p > 0``, the logarithmic gap ``log(1+pb) < p``,
and five closed-form inequalities (named I..V below) under which the
asymptotic ordering of the acceptance times and the interval optimisation
of the hardness bound are valid.  An additional size-dependent check
(``pmf``) guarantees that the masses of ``V`` form a probability vector:
``p/n + 1/n^2 <= 1``.

The finite-size law needs only ``ordering``, ``pmf`` and ``b < n``
(:func:`require_law`), and :func:`make_instance`, the backward pass, the
prophet and the simulators check just that; the hardness bound and the
sweep, which use the asymptotics, check all eight.  Only the exhaustive
oracle takes an :class:`InstanceParams` whose law is not real.

All checks are evaluated unconditionally (no short-circuit) so a report
always shows every violated condition at once.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

__all__ = [
    "CONDITION_NAMES",
    "ConditionCheck",
    "ConditionReport",
    "InstanceParams",
    "ValueDistribution",
    "ParameterError",
    "InfeasibleInstanceError",
    "validate",
    "require_law",
    "make_instance",
]

CONDITION_NAMES = ("ordering", "log", "I", "II", "III", "IV", "V", "pmf")
# Largest n whose square converts to a finite float (about 1.34e154), as the
# masses 1/n^2 and p/n are floats.  Integers from halfway between the largest
# float and 2**1024 upward round to infinity.
_MAX_N = math.isqrt(2**1024 - 2**970 - 1)


class ParameterError(ValueError):
    """An input is non-finite, of the wrong type, or out of its domain."""


class InfeasibleInstanceError(ValueError):
    """Construction attempted with parameters that fail validation.

    The full :class:`ConditionReport` is attached as ``.report``.
    """

    def __init__(self, report: "ConditionReport"):
        failed = ", ".join(report.failed_names())
        super().__init__(f"infeasible parameters (failed checks: {failed})")
        self.report = report


@dataclass(frozen=True)
class ConditionCheck:
    """One feasibility inequality with its numeric witnesses."""

    name: str
    lhs: float
    rhs: float
    passed: bool

    def as_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "pass": self.passed}


@dataclass(frozen=True, slots=True)
class ConditionReport:
    """Outcome of all eight feasibility checks for one parameter tuple.

    Entry ``i`` of ``lhs``, ``rhs`` and ``ok`` belongs to the check named
    ``CONDITION_NAMES[i]``: its two numeric witnesses and whether it holds.
    ``checks`` builds the per-check rows when it is read.
    """

    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    ok: tuple[bool, ...]

    @property
    def checks(self) -> tuple[ConditionCheck, ...]:
        return tuple(map(ConditionCheck, CONDITION_NAMES, self.lhs, self.rhs, self.ok))

    @property
    def passed(self) -> bool:
        return all(self.ok)

    def check(self, name: str) -> ConditionCheck:
        try:
            i = CONDITION_NAMES.index(name)
        except ValueError:
            raise KeyError(name) from None
        return ConditionCheck(name, self.lhs[i], self.rhs[i], self.ok[i])

    def failed_names(self) -> tuple[str, ...]:
        return tuple(name for name, ok in zip(CONDITION_NAMES, self.ok) if not ok)

    def to_json(self) -> str:
        return json.dumps([c.as_dict() for c in self.checks])


@dataclass(frozen=True)
class ValueDistribution:
    """Three-point law of ``V``: support ``(n, b, 0)`` with the given masses.

    ``mean`` is stored as the closed form ``(1 + b*p)/n``.  Where the law
    is not real (e.g. ``InstanceParams`` at ``n = 1``) the last mass may be
    negative; the masses then act as formal signed weights, which only the
    exhaustive oracle takes.
    """

    support: tuple[float, float, float]
    masses: tuple[float, float, float]
    mean: float


@dataclass(frozen=True)
class InstanceParams:
    """Parameter tuple of one instance: constant ``a``, value ``b``, mass scale ``p``, size ``n``.

    :meth:`distribution` is the one source of the law of ``V``, masses and mean.
    """

    a: float
    b: float
    p: float
    n: int

    def distribution(self) -> ValueDistribution:
        n = self.n
        top = 1.0 / (n * n)
        mid = self.p / n
        return ValueDistribution(
            support=(float(n), self.b, 0.0),
            # the complement of the pmf row's own sum, so >= 0 on every real law
            masses=(top, mid, 1.0 - (mid + top)),
            mean=(1.0 + self.b * self.p) / n,
        )


def _finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ParameterError(f"{name} must be finite, got {x!r}")
    return x


def _integer(x, name: str) -> int:
    # Any integral type (numpy ints included) becomes a Python int; bools,
    # floats and strings are rejected instead of coerced.
    if isinstance(x, bool):
        raise ParameterError(f"{name} must be an integer, got {x!r}")
    try:
        return operator.index(x)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {x!r}") from None


def _size(n) -> int:
    # A Python int, so that n * n cannot overflow.
    n = _integer(n, "n")
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    if n > _MAX_N:
        raise ParameterError(f"n must be at most {_MAX_N:.6g}, so that n*n is a finite float")
    return n


def validate(a: float, b: float, p: float, n: int | None = None) -> ConditionReport:
    """Evaluate all eight feasibility checks for ``(a, b, p)`` and optionally ``n``.

    With ``n=None`` the size-dependent ``pmf`` row is reported in its
    large-size limit (lhs 0, trivially passing); pass an explicit ``n`` to
    check that the masses of ``V`` form a probability vector.

    The ``ordering`` row compresses ``0 < a < 1 < b`` and ``p > 0`` into a
    single numeric witness: lhs is the smallest of the four margins
    ``a, 1-a, b-1, p`` and the check passes iff it is positive.

    Pure function: identical inputs yield identical reports.
    """
    a = _finite(a, "a")
    b = _finite(b, "b")
    p = _finite(p, "p")
    if n is not None:
        n = _size(n)
    return ConditionReport(*_rows(a, b, p, n, math.log, math.log1p, _nan_unless, min))


def _nan_unless(test: bool, x: float) -> float:
    return x if test else math.nan


def _rows(a, b, p, n, log, log1p, nan_unless, min):
    """``(lhs, rhs, ok)`` of the eight checks, in ``CONDITION_NAMES`` order, for finite inputs.

    The functions come as arguments, like ``asymptotics._limits``'s.
    :func:`validate` passes ``math.log``, ``math.log1p``, :func:`_nan_unless`
    and ``min``.  The sweep passes numpy lanes of points with libm per element
    and numpy counterparts of the other two, so each lane gets
    :func:`validate`'s bits.  Each guard ``nan_unless(test, x)`` turns an
    argument outside the domain of ``log``, ``log1p`` or a division into
    NaN, and a NaN witness fails its check.
    """
    ordering_margin, pmf_lhs = _law_lhs(a, b, p, n, min)
    pb = p * b
    # log1p's domain, where also 1 + pb > 0 exactly
    pb_or_nan = nan_unless(pb > -1.0, pb)
    log_lhs = log1p(pb_or_nan)
    u = 1.0 + pb
    v = 1.0 + (b - a) * p
    v_or_nan = nan_unless(v != 0.0, v)
    ratio = u / v_or_nan
    lhs_i = ratio * log(nan_unless(ratio > 0.0, ratio))
    rhs_i = a * p
    lhs_ii = (2.0 - p) * (b - a)
    lhs_iii = (1.0 - lhs_ii) / v_or_nan
    # v / u, NaN where u <= 0 and at most 0 where v <= 0 < u: the guard below
    # fails there, as where v / u underflows to 0 (p*b overflows)
    w = v / (1.0 + pb_or_nan)
    rhs_iii = 1.0 + log(nan_unless(w > 0.0, w)) / nan_unless(p != 0.0, p)
    lhs_iv = 2.0 + pb * (1.0 - p * (b - a))
    denom_v = u * log_lhs
    lhs_v = pb * v / nan_unless(denom_v != 0.0, denom_v)
    return (
        (ordering_margin, log_lhs, lhs_i, lhs_ii, lhs_iii, lhs_iv, lhs_v, pmf_lhs),
        (0.0, p, rhs_i, 1.0, rhs_iii, 0.0, 1.0, 1.0),
        (
            ordering_margin > 0.0,
            log_lhs < p,
            lhs_i <= rhs_i,
            lhs_ii < 1.0,
            lhs_iii < rhs_iii,
            lhs_iv >= 0.0,
            lhs_v < 1.0,
            pmf_lhs <= 1.0,
        ),
    )


def _law_lhs(a, b, p, n: int | None, min) -> tuple:
    # The ``ordering`` and ``pmf`` lhs of checked inputs; pmf's n=None limit is 0.
    return min(a, 1.0 - a, b - 1.0, p), (0.0 if n is None else p / n + 1.0 / (n * n))


def require_law(inst: InstanceParams) -> None:
    """Raise unless ``inst`` has a real law: ``ordering`` and ``pmf`` pass, and ``b < n``.

    A failed row raises :class:`InfeasibleInstanceError` with the full
    :func:`validate` report, which is built only then, and ``b >= n``
    :class:`ParameterError`.
    """
    a, b, p, n = _finite(inst.a, "a"), _finite(inst.b, "b"), _finite(inst.p, "p"), _size(inst.n)
    ordering, pmf = _law_lhs(a, b, p, n, min)
    if not (ordering > 0.0 and pmf <= 1.0):
        raise InfeasibleInstanceError(validate(a, b, p, n))
    if not b < n:
        # the support triple is ordered n > b > 0: the size value must
        # dominate, otherwise the law of the maximum degenerates
        raise ParameterError(f"need b < n for an ordered support, got b={b}, n={n}")


def make_instance(a: float, b: float, p: float, n: int) -> tuple[InstanceParams, ValueDistribution]:
    """Construct an instance with a real law, and its value distribution.

    Checks the law only, with :func:`require_law`: a point that fails only
    asymptotic rows such as ``log`` is accepted.  Formal weights (``n = 1``,
    ``b >= n``) come from :class:`InstanceParams` directly, for the
    exhaustive oracle.
    """
    inst = InstanceParams(a=float(a), b=float(b), p=float(p), n=_size(n))
    require_law(inst)
    return inst, inst.distribution()
