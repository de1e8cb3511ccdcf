"""Expectation of the offline maximum over one instance.

The maximum of ``n`` iid draws of ``V`` together with the constant ``a``
takes one of three values: ``n`` when at least one draw hits the top atom,
else ``b`` when at least one draw hits the ``b`` atom, else ``a``.  The
finite-size expectation is therefore

    n*(1 - (1-1/n^2)^n) + b*((1-1/n^2)^n - (1-p/n-1/n^2)^n) + a*(1-p/n-1/n^2)^n

and its large-size limit is ``1 + b(1-e^{-p}) + a e^{-p}``.
"""

from __future__ import annotations

import math

from .instance import InstanceParams, ParameterError, require_law

__all__ = ["prophet_exact", "prophet_limit"]


def prophet_exact(inst: InstanceParams) -> float:
    """E[max of the instance] at finite size ``n``.

    Three-case law of the maximum (value ``n``, else ``b``, else ``a``),
    valid because a real law (:func:`~rostop.instance.require_law`, which
    raises otherwise) has its support ordered ``a < b < n``.  The powers go
    through exp(n*log1p(-x)) (the direct power of the rounded base loses
    ~n ulps at n = 10^6), and the top-value probability 1-(1-1/n^2)^n is
    taken from expm1 directly: forming it by subtraction would cancel down
    to ~n ulps absolute after the multiplication by n.  A law without a
    zero atom never leaves every draw at zero.
    """
    require_law(inst)
    n, a, b = inst.n, inst.a, inst.b
    w_top, w_mid, _ = inst.distribution().masses
    eps = w_mid + w_top
    some_top = -math.expm1(n * math.log1p(-w_top))  # P(max = n)
    all_zero = math.exp(n * math.log1p(-eps)) if eps < 1.0 else 0.0
    no_top = 1.0 - some_top
    return n * some_top + b * (no_top - all_zero) + a * all_zero


def prophet_limit(a: float, b: float, p: float) -> float:
    """Large-size limit ``1 + b(1-e^{-p}) + a e^{-p}``."""
    if not (a > 0 and b > 0 and p > 0):
        raise ParameterError("a, b, p must be positive")
    return _limit(a, b, p, math.exp)


def _limit(a, b, p, exp):
    """:func:`prophet_limit`'s formula without its checks; ``exp`` as in ``asymptotics._q``."""
    e = exp(-p)
    return 1.0 + b * (1.0 - e) + a * e
