"""f-divergences and the variety metric built on them.

An f-divergence compares two probability vectors through a convex
generator ``f`` with ``f(1) = 0``:

    D_f(p, q) = sum_sigma p(sigma) * f(q(sigma) / p(sigma))

Zero-mass cells follow the perspective-function limits: a cell with
p = q = 0 contributes nothing; p = 0 < q contributes q * tail where
tail = lim_{u->inf} f(u)/u, and so does a p > 0 below q * 1e-300, whose
q/p could overflow; q = 0 < p contributes p * f(0+), which is
+inf for generators that blow up at 0 (KL, Pearson) and is returned as
an explicit infinity, never raised.

The variety of a joint choice-prediction distribution D is the
f-divergence from D to its uninformative projection.  It is zero exactly
on uninformative distributions and shrinks linearly (or faster) as
uninformative respondents are mixed in.

``pointwise_contributions`` and ``_variety_stack`` are the one kernel:
each scores every kind in a sequence in one call, one row per kind, so
no caller loops over kinds.  ``_variety_stack`` stays private although
:mod:`fvariety.estimation`, :mod:`fvariety.synthesis` and the CLI call
it: it scores a stack of raw mass arrays without the validation that
:func:`f_variety` gets from :class:`JointDistribution`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import JointDistribution
from .errors import InvalidGenerator, LengthMismatch, NotAProbability, NotBinary

_PROBABILITY_SLACK = 1e-9


def _tvd_generator(x: np.ndarray) -> np.ndarray:
    return 0.5 * np.abs(x - 1.0)


def _kl_generator(x: np.ndarray) -> np.ndarray:
    return -np.log(x)


def _pearson_generator(x: np.ndarray) -> np.ndarray:
    # algebraically (x-1)^2 / x; this form cannot overflow for x < 1e308
    return x - 2.0 + 1.0 / x


def _hellinger_generator(x: np.ndarray) -> np.ndarray:
    return 0.5 * (np.sqrt(x) - 1.0) ** 2


@dataclass(frozen=True)
class DivergenceKind:
    """A convex generator plus the limits needed at zero-mass cells.

    ``generator`` must accept a positive float ndarray and return an
    ndarray (numpy ufunc style).  ``tail`` is lim f(u)/u as u -> inf and
    ``zero_limit`` is lim f(x) as x -> 0+; either may be ``math.inf``.

    Construction runs the registration checks: neither limit is NaN,
    f(1) = 0 within 1e-12, and numeric convexity on 100 deterministic
    random triples in (0, 10].  A NaN value fails every check.
    """

    name: str
    generator: Callable[[np.ndarray], np.ndarray]
    tail: float
    zero_limit: float

    def __post_init__(self) -> None:
        if math.isnan(self.tail) or math.isnan(self.zero_limit):
            raise InvalidGenerator(
                f"{self.name}: tail {self.tail!r} and zero_limit "
                f"{self.zero_limit!r} must not be NaN"
            )
        at_one = float(np.asarray(self.generator(np.array([1.0])))[0])
        if not abs(at_one) <= 1e-12:
            raise InvalidGenerator(f"{self.name}: f(1) = {at_one!r}, expected 0")
        rng = np.random.default_rng(1815)
        pts = np.sort(rng.uniform(1e-6, 10.0, size=(100, 3)), axis=1)
        x1, x2, x3 = pts[:, 0], pts[:, 1], pts[:, 2]
        lam = (x3 - x2) / (x3 - x1)
        f1 = np.asarray(self.generator(x1))
        f2 = np.asarray(self.generator(x2))
        f3 = np.asarray(self.generator(x3))
        chord = lam * f1 + (1.0 - lam) * f3
        if not np.all(f2 <= chord + 1e-9):
            worst = float(np.max(f2 - chord))
            raise InvalidGenerator(
                f"{self.name}: convexity violated by {worst} on a random triple"
            )


TVD = DivergenceKind("tvd", _tvd_generator, tail=0.5, zero_limit=0.5)
KL = DivergenceKind("kl", _kl_generator, tail=0.0, zero_limit=math.inf)
PEARSON = DivergenceKind("pearson", _pearson_generator, tail=1.0, zero_limit=math.inf)
HELLINGER = DivergenceKind("hellinger", _hellinger_generator, tail=0.5, zero_limit=0.5)

BUILTIN_KINDS: dict[str, DivergenceKind] = {
    kind.name: kind for kind in (TVD, KL, PEARSON, HELLINGER)
}


def get_kind(name: str) -> DivergenceKind:
    """Look up a divergence by its wire name ("tvd", "kl", "pearson", "hellinger")."""
    try:
        return BUILTIN_KINDS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_KINDS))
        raise InvalidGenerator(f"unknown divergence {name!r}; known: {known}") from None


def pointwise_contributions(
    p: np.ndarray, q: np.ndarray, kinds: Sequence[DivergenceKind]
) -> np.ndarray:
    """Elementwise terms p*f(q/p), one row per kind, with the zero-mass
    conventions applied; the masks and q/p are computed once for all kinds.

    Accepts any non-negative weight arrays (densities included), so the
    continuous-model integrands reuse the exact same conventions as the
    discrete sums.  When every cell has both masses (every quadrature
    panel does) the terms are computed without masks, from the same
    elementwise operations, so the bits are the same either way.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    negligible = q * 1e-300  # p at or below it takes the p -> 0 limit
    q_positive = q > 0.0
    both = (p > negligible) & q_positive
    if both.all():
        ratio = q / p
        return np.stack([p * np.asarray(kind.generator(ratio)) for kind in kinds])

    p, q = np.broadcast_arrays(p, q)
    q_only = (p <= negligible) & q_positive
    p_only = (p > 0.0) & (q == 0.0)
    p_both, ratio, q_tail, p_zero = p[both], q[both] / p[both], q[q_only], p[p_only]
    out = np.zeros((len(kinds), *both.shape))
    for row, kind in zip(out, kinds):
        row[both] = p_both * np.asarray(kind.generator(ratio))
        row[q_only] = q_tail * kind.tail
        row[p_only] = p_zero * kind.zero_limit
    return out


def _validate_probability(vec: np.ndarray, label: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1:
        raise NotAProbability(f"{label} must be a 1-d vector, got ndim={vec.ndim}")
    if np.any(vec < 0.0):
        raise NotAProbability(f"{label} has a negative entry: {float(vec.min())}")
    total = float(vec.sum())
    if not abs(total - 1.0) <= _PROBABILITY_SLACK:  # NaN fails too
        raise NotAProbability(f"{label} sums to {total!r}, expected 1")
    return vec


def f_divergence(
    p: Sequence[float] | np.ndarray,
    q: Sequence[float] | np.ndarray,
    kind: DivergenceKind,
) -> float:
    """D_f(p, q) for same-length probability vectors; may be +inf, never NaN."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise LengthMismatch(f"lengths differ: {p.shape} vs {q.shape}")
    p = _validate_probability(p, "p")
    q = _validate_probability(q, "q")
    value = float(pointwise_contributions(p, q, [kind])[0].sum())
    if math.isnan(value):  # the limits are never NaN; the generator was
        raise InvalidGenerator(f"{kind.name}: generator gave a NaN divergence")
    return value


def _variety_stack(mass: np.ndarray, kinds: Sequence[DivergenceKind]) -> np.ndarray:
    """``(len(kinds), ...)`` varieties of every normalized (C, B) table in
    a ``(..., C, B)`` stack; a non-finite one names the first such kind.

    Repeats the arithmetic of :func:`uninformative_projection` (column
    sums over choices, divided by C, tiled, renormalized by the float
    total) once for all kinds, so each table scores bit-identically to a
    lone table.  A table whose C rows are all exactly equal is
    uninformative by definition and scores exactly 0.0, where the
    renormalization could leave it an ulp off.
    """
    n_choices = mass.shape[-2]
    column = mass.sum(axis=-2, keepdims=True) / n_choices
    projected = np.repeat(column, n_choices, axis=-2)
    projected = projected / projected.sum(axis=(-2, -1), keepdims=True)
    values = pointwise_contributions(mass, projected, kinds).sum(axis=(-2, -1))
    for kind, row in zip(kinds, values):
        if not np.all(np.isfinite(row)):  # the pairing is finite; the generator was not
            raise InvalidGenerator(f"{kind.name}: generator gave a non-finite variety")
    return np.where(np.all(mass == mass[..., :1, :], axis=(-2, -1)), 0.0, values)


def f_variety(dist: JointDistribution, kind: DivergenceKind) -> float:
    """Divergence from ``dist`` to its uninformative projection.

    Finite for every generator: a projection cell is zero only where the
    whole prediction column is zero, so the p > 0 = q branch cannot occur.
    """
    return float(_variety_stack(dist.mass, [kind])[0])


def tvd_variety_binary_closed_form(dist: JointDistribution) -> float:
    """Binary-choice total-variation variety: half the L1 distance between
    the two choice-weighted prediction histograms."""
    if dist.n_choices != 2:
        raise NotBinary(f"closed form needs 2 choices, got {dist.n_choices}")
    return 0.5 * float(np.abs(dist.mass[0] - dist.mass[1]).sum())


def baseline(dist: JointDistribution) -> float:
    """Unbalance of binary choice statistics, |share of first choice - 1/2|.

    Blind to dependence between choice and prediction, which is exactly
    what the variety metric adds.
    """
    if dist.n_choices != 2:
        raise NotBinary(f"baseline needs 2 choices, got {dist.n_choices}")
    return abs(float(dist.choice_marginal()[0]) - 0.5)
