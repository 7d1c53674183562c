"""Adaptive Gauss-Kronrod integration for integrands with isolated kinks.

The total-variation integrands contain |.| terms whose derivative jumps
where the two densities cross; plain smooth-rule error estimates stall
there.  Callers locate the crossings with :func:`find_sign_changes`, a
grid scan repeated inside each bracket it finds, and pass them as break
points so every panel sees a smooth integrand.

Both functions take a ``func`` that returns one row of values per curve.
:func:`adaptive_quadrature` refines its rows in lockstep: each row keeps
its own panels and splits them in the order it would alone, so its value
is the same to the bit, while each round's new panels of all rows share
one ``func`` call.  Several integrands over the same densities (one per
divergence kind) then pay for the densities once per round.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, QuadratureFailure

MAX_INTERVALS = 10_000
# Roots are located to this width; crossings closer than it are one kink.
ROOT_TOL = 1e-13
# cells a kink bracket is cut into on each func call: 2**7, so on a dyadic
# bracket they fall where seven bisection steps would
_SPLIT = 128


def _mirrored(half: list[float], sign: float = 1.0) -> np.ndarray:
    """A full table from a QUADPACK half table, which ends at the centre node."""
    return np.array([sign * v for v in half[:-1]] + half[::-1])


# Gauss-Kronrod 7-15 nodes and weights on [-1, 1] (QUADPACK's qk15 half tables).
_KRONROD_NODES = _mirrored([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
], -1.0)
_KRONROD_WEIGHTS = _mirrored([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
# Gauss-7 weights apply to every other Kronrod node (indices 1,3,...,13).
_GAUSS_WEIGHTS = _mirrored([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])


def _check_interval(lo: float, hi: float) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"interval [{lo}, {hi}] must be finite and non-empty")


def _panel(y: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    """One GK15 panel from the integrand's values on its nodes: (integral
    estimate, error estimate).

    Raises :class:`QuadratureFailure` when either is not finite, e.g. when
    a node of a tiny end panel rounds onto an endpoint where the integrand
    is infinite.
    """
    half = 0.5 * (hi - lo)
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
) -> float | list[float]:
    """Integrate every row of ``func`` over [lo, hi] to absolute tolerance
    ``tol``.

    ``func`` maps an ndarray of abscissae to one row of values per
    integrand, shaped (rows, len(x)), and is never called at the
    endpoints.  A 1-D result is one integrand, and its integral comes back
    as a float; otherwise a list of floats comes back, one per row.
    ``break_points`` inside the interval pre-split the panels.

    Each row keeps its own heap, total and error sum and refines exactly
    as it would alone, with its own ``max_intervals`` budget.  The rows
    move in lockstep: each round, every row still above ``tol`` splits its
    largest-error panel, and the nodes of all the children not evaluated
    before go to ``func`` in one call.

    Raises :class:`QuadratureFailure` when a row's budget runs out before
    the tolerance is met, or when a panel sum or its error estimate is not
    finite.  A failing row stops itself and the rows after it; the rows
    before it go on, and the error raised is the first failing row's, with
    that row as its ``row``.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    _check_interval(lo, hi)
    edges = [lo] + sorted(p for p in set(break_points) if lo < p < hi) + [hi]
    initial = list(zip(edges[:-1], edges[1:]))
    blocks: dict[tuple[float, float], np.ndarray] = {}  # panel -> (rows, 15) values

    def evaluate(panels: list[tuple[float, float]]) -> np.ndarray | None:
        """Fill ``blocks`` for the panels not evaluated yet, in one ``func``
        call, and return its result (None when there was nothing new)."""
        new = [p for p in dict.fromkeys(panels) if p not in blocks]
        if not new:
            return None
        a, b = np.array(new).T
        half, mid = 0.5 * (b - a), 0.5 * (b + a)
        x = (mid[:, None] + half[:, None] * _KRONROD_NODES).ravel()
        y = np.asarray(func(x), dtype=np.float64)
        blocks.update(zip(new, y.reshape(-1, len(new), _KRONROD_NODES.size).swapaxes(0, 1)))
        return y

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):  # checked per panel
        one_row = evaluate(initial).ndim == 1
        rows = len(blocks[initial[0]])
        # per row: a heap of (-error, counter, lo, hi, value), where the
        # counter breaks ties deterministically; that counter; total; error sum
        heaps: list[list[tuple[float, int, float, float, float]]] = [[] for _ in range(rows)]
        counts = [0] * rows
        totals = [0.0] * rows
        errors = [0.0] * rows
        failure: QuadratureFailure | None = None
        children = dict.fromkeys(range(rows), initial)
        while children:
            evaluate([p for panels in children.values() for p in panels])
            scored, children = children, {}
            for k, panels in scored.items():
                try:
                    for a, b in panels:
                        value, err = _panel(blocks[a, b][k], a, b)
                        heapq.heappush(heaps[k], (-err, counts[k], a, b, value))
                        counts[k] += 1
                        totals[k] += value
                        errors[k] += err
                    if errors[k] > tol and counts[k] >= max_intervals:
                        raise QuadratureFailure(
                            f"tolerance {tol} not reached within {max_intervals} "
                            f"intervals (error estimate {errors[k]})"
                        )
                except QuadratureFailure as exc:
                    # this row and the rows after it stop
                    failure, exc.row = exc, k
                    break
                if errors[k] > tol:
                    neg_err, _, a, b, value = heapq.heappop(heaps[k])
                    totals[k] -= value
                    errors[k] += neg_err  # neg_err is -err
                    mid = 0.5 * (a + b)
                    children[k] = [(a, mid), (mid, b)]
    if failure is not None:
        raise failure
    return totals[0] if one_row else totals


def find_sign_changes(
    func: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    scan_points: int = 512,
    tol: float = ROOT_TOL,
) -> list[float]:
    """Roots of ``func`` in (lo, hi), located by a grid scan that is then
    repeated inside each bracket it finds.

    ``func`` returns one row of values per curve; a 1-D result is one curve.
    Only sign changes on the scan grid are found; that is enough to break
    integrands at density crossings, where missing a doubly-crossing sliver
    costs accuracy the adaptive refinement recovers anyway.  A NaN scan
    value (say inf - inf where a density is infinite at an endpoint)
    carries no sign, so its cells are skipped.  A grid point where the
    value is exactly 0 is a root when neither grid neighbour is 0 too; a
    run of exact zeros (say a density gap whose terms are below each
    other's rounding) is flat, not a crossing.

    Each bracket is cut into ``_SPLIT`` equal cells; the first cut point
    whose value leaves the sign of the bracket's left end (an exact zero
    does) ends the new bracket.  That repeats until the bracket is at most
    ``tol`` wide, lands on a zero, or cannot be cut because its ends are
    adjacent floats; its root is its midpoint.  All brackets share one
    ``func`` call a round, each reading its own row; roots come back row
    by row.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    _check_interval(lo, hi)
    if scan_points < 1:
        raise DomainError(f"scan_points must be at least 1, got {scan_points}")
    xs = np.linspace(lo, hi, scan_points + 1)
    with np.errstate(invalid="ignore", over="ignore"):
        ys = np.atleast_2d(np.asarray(func(xs), dtype=np.float64))
    y0, y1 = ys[:, :-1], ys[:, 1:]
    # an interior zero between two non-zero neighbours; inside a run of
    # exact zeros (terms below each other's rounding) the curve is flat
    zero = ys == 0.0
    on_grid = np.zeros_like(zero[:, 1:])
    on_grid[:, 1:] = zero[:, 1:-1] & ~zero[:, :-2] & ~zero[:, 2:]
    # signs, not the product: two tiny values multiply to 0; a NaN or a 0
    # at either end brackets nothing
    bracketed = np.sign(y0) * np.sign(y1) < 0.0

    rows, cells = np.nonzero(bracketed)
    a, b = xs[cells], xs[cells + 1]
    sign = np.sign(y0[rows, cells])
    fractions = np.arange(_SPLIT + 1) / _SPLIT
    active = np.arange(len(rows))
    while True:
        # a bracket closes at most tol wide, on an exact zero (its ends
        # equal) or with adjacent floats for ends
        left, right = a[active], b[active]
        cuttable = (right - left > tol) & (np.nextafter(left, right) < right)
        active, left, right = active[cuttable], left[cuttable], right[cuttable]
        if not len(active):
            break
        n = np.arange(len(active))
        cuts = left[:, None] + (right - left)[:, None] * fractions
        cuts[:, -1] = right
        fc = np.atleast_2d(np.asarray(func(cuts[:, 1:-1].ravel()), dtype=np.float64))
        # each bracket's own row, then its right end, which always leaves
        fc = fc.reshape(len(fc), len(active), _SPLIT - 1)[rows[active], n]
        fc = np.column_stack([fc, -sign[active]])
        k = np.argmax(np.sign(fc) != sign[active, None], axis=1)
        a[active] = np.where(fc[n, k] == 0.0, cuts[n, k + 1], cuts[n, k])
        b[active] = cuts[n, k + 1]

    roots = np.broadcast_to(xs[:-1], y0.shape).copy()
    roots[rows, cells] = 0.5 * (a + b)
    return roots[on_grid | bracketed].tolist()
