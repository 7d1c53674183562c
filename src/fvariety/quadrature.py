"""Adaptive Gauss-Kronrod integration for integrands with isolated kinks.

The total-variation integrands contain |.| terms whose derivative jumps
where the two densities cross; plain smooth-rule error estimates stall
there.  Callers locate the crossings (see :func:`find_sign_changes`) and
pass them as break points so every panel sees a smooth integrand.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, QuadratureFailure

MAX_INTERVALS = 10_000

# Gauss-Kronrod 7-15 nodes and weights on [-1, 1] (QUADPACK constants).
_KRONROD_NODES = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
# Gauss-7 weights apply to every other Kronrod node (indices 1,3,...,13).
_GAUSS_WEIGHTS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


def _panel(func: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> tuple[float, float]:
    """One GK15 panel: (integral estimate, error estimate).

    Raises :class:`QuadratureFailure` when either is not finite, e.g. when
    a node of a tiny end panel rounds onto an endpoint where the integrand
    is infinite.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid + half * _KRONROD_NODES
    with np.errstate(invalid="ignore", divide="ignore"):  # checked below
        y = np.asarray(func(x), dtype=np.float64)
    kronrod = half * float(_KRONROD_WEIGHTS @ y)
    gauss = half * float(_GAUSS_WEIGHTS @ y[1::2])
    err = abs(kronrod - gauss)
    if not (math.isfinite(kronrod) and math.isfinite(err)):
        raise QuadratureFailure(
            f"integrand is not finite on the panel [{lo!r}, {hi!r}]"
        )
    return kronrod, err


def adaptive_quadrature(
    func: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float,
    break_points: Sequence[float] = (),
    max_intervals: int = MAX_INTERVALS,
) -> float:
    """Integrate ``func`` over [lo, hi] to absolute tolerance ``tol``.

    ``func`` maps an ndarray of abscissae to an ndarray of values and is
    never called at the endpoints.  ``break_points`` inside the interval
    pre-split the panels.  Raises :class:`QuadratureFailure` when the
    interval budget runs out before the tolerance is met, or when a panel
    sum or its error estimate is not finite.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if hi <= lo:
        raise DomainError(f"empty interval [{lo}, {hi}]")
    edges = [lo] + sorted(p for p in set(break_points) if lo < p < hi) + [hi]

    # heap of (-error, counter, lo, hi, value); counter breaks ties deterministically
    heap: list[tuple[float, int, float, float, float]] = []
    counter = 0
    total = 0.0
    total_err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        value, err = _panel(func, a, b)
        heapq.heappush(heap, (-err, counter, a, b, value))
        counter += 1
        total += value
        total_err += err

    while total_err > tol:
        if counter >= max_intervals:
            raise QuadratureFailure(
                f"tolerance {tol} not reached within {max_intervals} intervals "
                f"(error estimate {total_err})"
            )
        neg_err, _, a, b, value = heapq.heappop(heap)
        total -= value
        total_err += neg_err  # neg_err is -err
        mid = 0.5 * (a + b)
        for left, right in ((a, mid), (mid, b)):
            v, e = _panel(func, left, right)
            heapq.heappush(heap, (-e, counter, left, right, v))
            counter += 1
            total += v
            total_err += e
    return total


def find_sign_changes(
    func: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    scan_points: int = 512,
    tol: float = 1e-13,
) -> list[float]:
    """Roots of ``func`` in (lo, hi), located by grid scan plus bisection.

    Only sign changes on the scan grid are found; that is enough to break
    integrands at density crossings, where missing a doubly-crossing sliver
    costs accuracy the adaptive refinement recovers anyway.  A NaN scan
    value (say inf - inf where a density is infinite at an endpoint)
    carries no sign, so its cells are skipped.  All brackets are bisected
    together, one ``func`` call per step on the midpoints still wider than
    ``tol``; roots come back in grid order.
    """
    xs = np.linspace(lo, hi, scan_points + 1)
    with np.errstate(invalid="ignore"):
        ys = np.asarray(func(xs), dtype=np.float64)
        y0, y1 = ys[:-1], ys[1:]
        on_grid = (y0 == 0.0) & (xs[:-1] > lo) & (xs[:-1] < hi)
        bracketed = (y0 != 0.0) & (y0 * y1 < 0.0)

    cells = np.flatnonzero(bracketed)
    a, b, fa = xs[cells], xs[cells + 1], y0[cells]
    active = np.flatnonzero(b - a > tol)
    while len(active):
        m = 0.5 * (a[active] + b[active])
        fm = np.asarray(func(m), dtype=np.float64)
        hit = fm == 0.0
        with np.errstate(invalid="ignore"):  # an infinite fa times a hit's 0
            left = ~hit & (fa[active] * fm < 0.0)
        right = ~hit & ~left
        a[active[hit]] = b[active[hit]] = m[hit]
        b[active[left]] = m[left]
        a[active[right]] = m[right]
        fa[active[right]] = fm[right]
        still = ~hit & (b[active] - a[active] > tol)
        active = active[still]

    roots = xs[:-1].copy()
    roots[cells] = 0.5 * (a + b)
    return roots[on_grid | bracketed].tolist()
