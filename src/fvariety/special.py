"""Special functions for Beta-distribution bin probabilities and densities.

Self-contained (math module only) so the exact bin probabilities the
simulator relies on do not depend on an external numerics stack; tests
cross-check against a binomial-sum oracle and scipy.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError

_MAX_CF_ITERATIONS = 300
_CF_EPS = 1e-16
_TINY = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_CF_ITERATIONS + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise DomainError(
        f"incomplete beta continued fraction did not converge for "
        f"a={a}, b={b}, x={x}"
    )


def log_beta(a: float, b: float) -> float:
    """log B(a, b); raises :class:`DomainError` where it overflows a float."""
    try:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    except OverflowError:
        raise DomainError(f"log B({a}, {b}) overflows a float") from None


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the Beta(a, b) CDF at x.

    Evaluated by continued fraction on the side where it converges fast,
    using the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) otherwise.  Absolute
    accuracy is well below 1e-10 over positive parameters.
    """
    # numpy scalars would turn an overflow in the continued fraction into
    # a RuntimeWarning; Python floats give inf/nan silently, and the loop
    # then reports non-convergence
    a, b, x = float(a), float(b), float(x)
    if not (a > 0.0 and b > 0.0) or math.isinf(a) or math.isinf(b):
        raise DomainError(f"parameters must be finite and positive, got a={a}, b={b}")
    if math.isnan(x) or x < 0.0 or x > 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_pdf_rows(x: np.ndarray, shapes: Sequence[tuple[float, float]]) -> np.ndarray:
    """Beta densities at the 1-D abscissae ``x``, one row per ``(a, b)``.

    ``log(x)`` and ``log1p(-x)`` are taken once for every row.  The closed
    endpoints get their limit values, points outside [0, 1] get 0, and a
    NaN abscissa gives NaN.
    """
    ab = np.array(shapes, dtype=np.float64)
    a, b = ab[:, :1], ab[:, 1:]
    log_norms = [log_beta(*s) for s in shapes]
    log_norm = np.array(log_norms)[:, None]
    if x.size and x.min() > 0.0 and x.max() < 1.0:  # NaN fails both
        return np.exp((a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - log_norm)
    out = np.zeros((len(shapes), len(x)))
    interior = (x > 0.0) & (x < 1.0)
    xi = x[interior]
    out[:, interior] = np.exp(
        (a - 1.0) * np.log(xi) + (b - 1.0) * np.log1p(-xi) - log_norm
    )
    out[:, np.isnan(x)] = math.nan
    at_zero, at_one = x == 0.0, x == 1.0
    # density at the closed endpoints: finite only when the exponent is 0
    for row, (a_, b_), ln in zip(out, shapes, log_norms):
        row[at_zero] = math.exp(-ln) if a_ == 1.0 else (0.0 if a_ > 1.0 else math.inf)
        row[at_one] = math.exp(-ln) if b_ == 1.0 else (0.0 if b_ > 1.0 else math.inf)
    return out


def beta_pdf(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """Beta(a, b) density, vectorized; endpoints get their limit values,
    points outside [0, 1] get 0 and NaN stays NaN."""
    x = np.asarray(x, dtype=np.float64)
    return _beta_pdf_rows(x.ravel(), [(a, b)])[0].reshape(x.shape)
