"""Independent reference for the upper incomplete gamma function.

Series expansion below s+1, modified Lentz continued fraction above, the
classic numerical-recipes construction.  Kept deliberately separate from
the package so the production gamma path has a second opinion.
"""
import math

_EPS = 1e-16
_TINY = 1e-300
_MAX_ITER = 10_000


def _lower_regularized_series(s: float, x: float) -> float:
    ap = s
    total = 1.0 / s
    delta = total
    for _ in range(_MAX_ITER):
        ap += 1.0
        delta *= x / ap
        total += delta
        if abs(delta) < abs(total) * _EPS:
            break
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _upper_regularized_cf(s: float, x: float) -> float:
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + s * math.log(x) - math.lgamma(s))


def upper_regularized_gamma(s: float, x: float) -> float:
    """Regularized Q(s, x) = Gamma(s, x) / Gamma(s), where
    Gamma(s, x) = integral_x^inf t^(s-1) e^-t dt.  Left normalized, so
    that orders whose Gamma(s) overflows a float stay in range."""
    if s <= 0 or x < 0:
        raise ValueError("need s > 0 and x >= 0")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        return 1.0 - _lower_regularized_series(s, x)
    return _upper_regularized_cf(s, x)
