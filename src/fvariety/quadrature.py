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
# steps a kink bracket may take beyond what bisection would need
_SPARE_STEPS = 2

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
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):  # checked below
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
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol}")
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


def _chandrupatla_t(
    x1: np.ndarray, x2: np.ndarray, x3: np.ndarray,
    f1: np.ndarray, f2: np.ndarray, f3: np.ndarray,
) -> np.ndarray:
    """Where the next point goes on [x1, x2], as a fraction t of the way
    from x1: inverse quadratic interpolation through the three points where
    Chandrupatla's test finds it safe, 0.5 (the midpoint) elsewhere."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        xi = (x1 - x2) / (x3 - x2)
        phi = (f1 - f2) / (f3 - f2)
        alpha = (x3 - x1) / (x2 - x1)
        t = (f1 / (f1 - f2) * f3 / (f3 - f2)
             - alpha * f1 / (f3 - f1) * f2 / (f2 - f3))
        safe = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi)) & np.isfinite(t)
    return np.where(safe, t, 0.5)


def find_sign_changes(
    func: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    scan_points: int = 512,
    tol: float = 1e-13,
) -> list[float]:
    """Roots of ``func`` in (lo, hi), located by grid scan plus Chandrupatla
    steps.

    ``func`` returns one row of values per curve; a 1-D result is one curve.
    Only sign changes on the scan grid are found; that is enough to break
    integrands at density crossings, where missing a doubly-crossing sliver
    costs accuracy the adaptive refinement recovers anyway.  A NaN scan
    value (say inf - inf where a density is infinite at an endpoint)
    carries no sign, so its cells are skipped.

    Each bracket shrinks until it is at most ``tol`` wide or a point lands
    on an exact zero, and its root is the midpoint of the final bracket.
    The points are Chandrupatla's (1997): inverse quadratic interpolation
    where that is safe, the midpoint otherwise, never closer than
    ``tol / 2`` to either end of the bracket.  Each bracket also gets a
    budget of ``_SPARE_STEPS`` steps more than bisection would take, and
    every point is kept close enough to the midpoint that the budget is
    met (the projection of the ITP method, Oliveira and Takahashi 2020): a
    multiple root, where interpolation creeps, costs at most that many
    steps more than bisection, and one more where rounding widens the
    midpoints.  All brackets step together, one ``func`` call per step on
    the brackets still open, each reading its own row; roots come back
    row by row.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    xs = np.linspace(lo, hi, scan_points + 1)
    with np.errstate(invalid="ignore", over="ignore"):
        ys = np.atleast_2d(np.asarray(func(xs), dtype=np.float64))
    y0, y1 = ys[:, :-1], ys[:, 1:]
    on_grid = (y0 == 0.0) & (xs[:-1] > lo) & (xs[:-1] < hi)
    # signs, not the product: two tiny values multiply to 0; a NaN or a 0
    # at either end brackets nothing
    bracketed = np.sign(y0) * np.sign(y1) < 0.0

    rows, cells = np.nonzero(bracketed)
    # x1 is the newest point, [x1, x2] (either order) the bracket and x3 the
    # point last dropped from it; t places the next point on [x1, x2]
    x1, f1 = xs[cells], y0[rows, cells]
    x2, f2 = xs[cells + 1], y1[rows, cells]
    x3, f3 = x2.copy(), f2.copy()
    t = np.full(len(rows), 0.5)
    width = np.abs(x2 - x1)
    steps_left = np.ceil(np.log2(width / tol)) + _SPARE_STEPS
    active = np.flatnonzero(width > tol)
    while len(active):
        xt = x1[active] + t[active] * (x2[active] - x1[active])
        ft = np.atleast_2d(np.asarray(func(xt), dtype=np.float64))
        ft = ft[rows[active], np.arange(len(active))]
        # a point on x1's side replaces x1; otherwise x1 becomes the far
        # end.  Signs are compared, not multiplied: the product of two tiny
        # values underflows to 0
        same = (ft < 0.0) == (f1[active] < 0.0)
        keep, flip = active[same], active[~same]
        x3[keep], f3[keep] = x1[keep], f1[keep]
        x3[flip], f3[flip] = x2[flip], f2[flip]
        x2[flip], f2[flip] = x1[flip], f1[flip]
        x1[active], f1[active] = xt, ft
        hit = ft == 0.0
        x2[active[hit]] = xt[hit]
        width[active] = np.abs(x2[active] - x1[active])
        steps_left[active] -= 1
        active = active[~hit & (width[active] > tol)]

        w = width[active]
        step = _chandrupatla_t(x1[active], x2[active], x3[active],
                               f1[active], f2[active], f3[active])
        margin = 0.5 * tol / w
        # within reach of the midpoint, the next bracket is at most
        # tol * 2**(steps_left - 1) wide
        reach = np.maximum(0.5 * (tol * 2.0 ** steps_left[active] - w), 0.0) / w
        t[active] = np.clip(np.clip(step, margin, 1.0 - margin), 0.5 - reach, 0.5 + reach)

    roots = np.broadcast_to(xs[:-1], y0.shape).copy()
    roots[rows, cells] = 0.5 * (x1 + x2)
    return roots[on_grid | bracketed].tolist()
