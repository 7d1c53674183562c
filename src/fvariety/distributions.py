"""Finite joint distributions over (choice, prediction-bin) pairs.

A group's feedback on one question is summarized by a probability table
over N_C choices x N_P prediction bins.  This module provides the table
type plus the handful of operations the informativeness metrics are built
from: marginals, mixing, the uninformative projection (uniform choices,
independent of prediction, same prediction marginal), and the predicate
that tests whether a distribution already is uninformative.

It is also the one home of the prediction grid (11 options, 0% to 100%)
and of the count table of answers on it, the one sample type: every
sample is drawn, read or scored as its ``(n_choices, n_bins)`` table of
answer counts.

All values are immutable; operations return new objects.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from .errors import (
    BadShape,
    BadWeights,
    DomainError,
    NegativeMass,
    NotNormalized,
    ShapeMismatch,
)

# Construction tolerates CSV-sized round-off, then renormalizes exactly.
NORMALIZATION_SLACK = 1e-9

_UNINFORMATIVE_TOL = 1e-9

# Prediction options 0%, 10%, ..., 100%, and the percent between two of them.
N_PREDICTION_BINS = 11
_PCT_STEP = 100 // (N_PREDICTION_BINS - 1)

# Half-up binning to the options {0%, 10%, ..., 100%}: edges at 0.05, ..., 0.95.
_GRID_STEPS = N_PREDICTION_BINS - 1
BIN_EDGES = np.concatenate(
    ([0.0], np.arange(_GRID_STEPS) / _GRID_STEPS + 0.5 / _GRID_STEPS, [1.0])
)


def _discretize_array(x: np.ndarray) -> np.ndarray:
    """Snap predictions in [0, 1] to the nearest of the 11 options, half-up."""
    return np.floor(_GRID_STEPS * x + 0.5).astype(np.intp)


def _count_table(n_choices: int, choices: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """``(n_choices, N_PREDICTION_BINS)`` intp table counting the answers
    whose choice index and prediction bin are ``choices[i]``, ``bins[i]``."""
    cells = choices * N_PREDICTION_BINS + bins
    counts = np.bincount(cells, minlength=n_choices * N_PREDICTION_BINS)
    return counts.reshape(n_choices, N_PREDICTION_BINS)


def _shape_count(name: str, value: Any) -> int:
    """``value`` as a Python int; a bool or a non-integer raises BadShape."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise BadShape(f"{name} must be an integer, got {value!r}")


def _json_number(value: Any) -> float:
    """A JSON number, an int or a float, as a float; any other value,
    a bool or a string too, raises TypeError.  ``float`` alone would read
    ``true`` as 1.0 and ``"0.5"`` as 0.5."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a JSON number, got {value!r}")
    return float(value)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Probability table over (choice, prediction-bin) pairs.

    ``mass[c, b]`` is the probability of choice ``c`` together with
    prediction bin ``b``.  Entries are non-negative and sum to exactly 1
    after construction.  The array is read-only.
    """

    n_choices: int
    n_bins: int
    mass: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n_choices = _shape_count("n_choices", self.n_choices)
        n_bins = _shape_count("n_bins", self.n_bins)
        mass = np.asarray(self.mass, dtype=np.float64)
        if mass.ndim != 2 or mass.shape != (n_choices, n_bins):
            raise BadShape(
                f"mass table has shape {mass.shape}, "
                f"declared ({n_choices}, {n_bins})"
            )
        if n_choices < 2:
            raise BadShape(f"need at least 2 choices, got {n_choices}")
        if n_bins < 1:
            raise BadShape(f"need at least 1 prediction bin, got {n_bins}")
        if np.any(mass < 0.0):
            worst = float(mass.min())
            raise NegativeMass(f"mass table has negative entry {worst}")
        total = float(mass.sum())
        if not abs(total - 1.0) <= NORMALIZATION_SLACK:  # NaN fails too
            raise NotNormalized(f"mass table sums to {total!r}, expected 1")
        mass = mass / total
        mass.flags.writeable = False
        object.__setattr__(self, "n_choices", n_choices)
        object.__setattr__(self, "n_bins", n_bins)
        object.__setattr__(self, "mass", mass)

    @classmethod
    def from_json_dict(cls, obj: dict[str, Any]) -> "JointDistribution":
        """Build from the wire format {"n_choices", "n_bins", "mass"}."""
        try:
            n_choices = obj["n_choices"]
            n_bins = obj["n_bins"]
            cells = np.asarray(obj["mass"], dtype=object)
            mass = np.reshape([_json_number(v) for v in cells.flat], cells.shape)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise BadShape(
                f"joint JSON object has a missing or malformed field: {exc!r}"
            ) from None
        return cls(n_choices=n_choices, n_bins=n_bins, mass=mass)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "n_choices": self.n_choices,
            "n_bins": self.n_bins,
            "mass": [[float(v) for v in row] for row in self.mass],
        }

    def choice_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    def prediction_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=0)


def mix(
    components: Iterable[tuple[float, JointDistribution]],
) -> JointDistribution:
    """Entrywise convex combination of same-shape distributions.

    Weights must be non-negative and sum to 1 within 1e-12.
    """
    pairs = list(components)
    if not pairs:
        raise BadWeights("mixture needs at least one component")
    weights = np.array([w for w, _ in pairs], dtype=np.float64)
    if np.any(weights < 0.0):
        raise BadWeights(f"negative mixture weight in {weights.tolist()}")
    total = float(weights.sum())
    if not abs(total - 1.0) <= 1e-12:  # NaN fails too
        raise BadWeights(f"mixture weights sum to {total!r}, expected 1")
    first = pairs[0][1]
    shape = (first.n_choices, first.n_bins)
    acc = np.zeros(shape)
    for w, dist in pairs:
        if (dist.n_choices, dist.n_bins) != shape:
            raise ShapeMismatch(
                f"component shape ({dist.n_choices}, {dist.n_bins}) "
                f"differs from {shape}"
            )
        acc += w * dist.mass
    return JointDistribution(n_choices=shape[0], n_bins=shape[1], mass=acc)


def uninformative_projection(dist: JointDistribution) -> JointDistribution:
    """The uninformative distribution with the same prediction marginal.

    Entry (c, b) is prediction_marginal[b] / n_choices: uniform choices,
    choice independent of prediction.  Idempotent.
    """
    column = dist.prediction_marginal() / dist.n_choices
    mass = np.tile(column, (dist.n_choices, 1))
    return JointDistribution(n_choices=dist.n_choices, n_bins=dist.n_bins, mass=mass)


def is_uninformative(dist: JointDistribution, tol: float = _UNINFORMATIVE_TOL) -> bool:
    """True iff ``dist`` is within max-norm ``tol`` of its own projection.

    The underlying definition is exact (uniform choices and independence);
    ``tol`` exists because empirical tables carry float round-off.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    projected = uninformative_projection(dist)
    return float(np.max(np.abs(dist.mass - projected.mass))) <= tol
