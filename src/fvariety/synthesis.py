"""Synthetic populations: Beta-mixture experts plus uniform non-experts.

Each expert picks choice c with weight w_c and draws a prediction from a
per-choice Beta density; each non-expert picks uniformly and draws from a
shared Beta density, which makes the non-expert sub-population exactly
uninformative.  The two are mixed with ratio ``nonexpert_ratio``.

The module provides three views of the same model:

* ``draw_samples``        - finite samples, predictions snapped to 11 bins
* ``exact_discretized_joint`` - the infinite-sample limit of those histograms
* ``continuous_f_variety``    - the un-binned metric, by adaptive quadrature

``_model_varieties`` is the one path from a model to its values, and
stays private although the CLI and the sweep call it: it computes the
continuous values of many kinds at once, as the rows of one lockstep
quadrature whose integrand computes the densities once per call and
scores every kind on them, pairs them with the discretized values and
checks the two against each other.
``continuous_f_variety``, the one public entry point, is its one-kind
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Sequence

import numpy as np

from .distributions import JointDistribution, _json_number, _shape_count
from .divergence import DivergenceKind, _variety_stack, pointwise_contributions
from .errors import BadShape, BadWeights, DomainError, QuadratureFailure
from .estimation import N_PREDICTION_BINS, SampleSet
from .quadrature import ROOT_TOL, adaptive_quadrature, find_sign_changes
from .sampling import RandomStream
from .special import _beta_pdf_rows, regularized_incomplete_beta

# Absolute tolerance of every continuous model value.
QUADRATURE_TOL = 1e-8
_SMALLEST_SUBNORMAL = math.ulp(0.0)

# Half-up binning to the options {0%, 10%, ..., 100%}: edges at 0.05, ..., 0.95.
_GRID_STEPS = N_PREDICTION_BINS - 1
BIN_EDGES = np.concatenate(
    ([0.0], np.arange(_GRID_STEPS) / _GRID_STEPS + 0.5 / _GRID_STEPS, [1.0])
)


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of a Beta density on [0, 1]."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        ok = (
            math.isfinite(self.alpha)
            and math.isfinite(self.beta)
            and self.alpha > 0.0
            and self.beta > 0.0
        )
        if not ok:
            raise DomainError(
                f"Beta parameters must be finite and positive, "
                f"got ({self.alpha}, {self.beta})"
            )


@dataclass(frozen=True)
class PopulationModel:
    """Mixture of Beta-prediction experts and uniform-choice non-experts."""

    n_choices: int
    expert_choice_weights: tuple[float, ...]
    expert_prediction: tuple[BetaParams, ...]
    nonexpert_prediction: BetaParams
    nonexpert_ratio: float

    def __post_init__(self) -> None:
        n_choices = _shape_count("n_choices", self.n_choices)
        if n_choices < 2:
            raise BadShape(f"need at least 2 choices, got {n_choices}")
        object.__setattr__(self, "n_choices", n_choices)
        weights = tuple(float(w) for w in self.expert_choice_weights)
        if len(weights) != self.n_choices:
            raise BadShape(
                f"{len(weights)} choice weights for {self.n_choices} choices"
            )
        if any(w < 0.0 for w in weights):
            raise BadWeights(f"negative choice weight in {weights}")
        if not abs(sum(weights) - 1.0) <= 1e-12:  # NaN fails too
            raise BadWeights(f"choice weights sum to {sum(weights)!r}, expected 1")
        if len(self.expert_prediction) != self.n_choices:
            raise BadShape(
                f"{len(self.expert_prediction)} expert Beta parameter pairs "
                f"for {self.n_choices} choices"
            )
        if not 0.0 <= self.nonexpert_ratio <= 1.0:
            raise DomainError(
                f"nonexpert_ratio must lie in [0, 1], got {self.nonexpert_ratio}"
            )
        object.__setattr__(self, "expert_choice_weights", weights)
        object.__setattr__(self, "expert_prediction", tuple(self.expert_prediction))

    def with_ratio(self, ratio: float) -> "PopulationModel":
        return replace(self, nonexpert_ratio=ratio)

    @classmethod
    def from_json_dict(cls, obj: dict[str, Any]) -> "PopulationModel":
        try:
            n_choices = obj["n_choices"]
            weights = tuple(map(_json_number, obj["expert_weights"]))
            pairs = [*obj["expert_beta"], obj["nonexpert_beta"]]
            *shapes, noise = [(_json_number(a), _json_number(b)) for a, b in pairs]
            ratio = _json_number(obj["nonexpert_ratio"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise BadShape(
                f"model JSON object has a missing or malformed field: {exc!r}"
            ) from None
        experts = tuple(BetaParams(a, b) for a, b in shapes)
        return cls(n_choices, weights, experts, BetaParams(*noise), ratio)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "n_choices": self.n_choices,
            "expert_weights": list(self.expert_choice_weights),
            "expert_beta": [[p.alpha, p.beta] for p in self.expert_prediction],
            "nonexpert_beta": [
                self.nonexpert_prediction.alpha,
                self.nonexpert_prediction.beta,
            ],
            "nonexpert_ratio": self.nonexpert_ratio,
        }


def _binary_preset(
    w_plus: float, plus: tuple[float, float], minus: tuple[float, float]
) -> PopulationModel:
    return PopulationModel(
        n_choices=2,
        expert_choice_weights=(w_plus, 1.0 - w_plus),
        expert_prediction=(BetaParams(*plus), BetaParams(*minus)),
        nonexpert_prediction=BetaParams(2.0, 2.0),
        nonexpert_ratio=0.0,
    )


PRESETS: dict[str, PopulationModel] = {
    "uniform-1": _binary_preset(0.5, (8, 3), (4, 5)),
    "non-uniform-1": _binary_preset(0.3, (8, 3), (4, 5)),
    "uniform-2": _binary_preset(0.5, (6, 6), (2, 3)),
    "non-uniform-2": _binary_preset(0.3, (6, 6), (2, 3)),
}


def get_preset(name: str) -> PopulationModel:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise DomainError(f"unknown preset {name!r}; known: {known}") from None


def _discretize_array(x: np.ndarray) -> np.ndarray:
    """Snap predictions in [0, 1] to the nearest of the 11 options, half-up."""
    return np.floor(_GRID_STEPS * x + 0.5).astype(np.intp)


def _choice_rows(model: PopulationModel, rows: np.ndarray) -> np.ndarray:
    """Mix one row per Beta shape, experts' then the non-experts', into one
    row per choice: (1 - r) w_c rows[c] + (r / C) rows[C], r the non-expert
    ratio.  A term whose weight is 0 is left out, so an infinite density
    there gives 0, not NaN."""
    ratio = model.nonexpert_ratio
    n = model.n_choices
    out = np.zeros((n, rows.shape[1]))
    if ratio > 0.0:
        noise_term = (ratio / n) * rows[n]
    for c, w in enumerate(model.expert_choice_weights):
        if ratio < 1.0 and w > 0.0:
            out[c] += (1.0 - ratio) * w * rows[c]
        if ratio > 0.0:
            out[c] += noise_term
    return out


def exact_discretized_joint(model: PopulationModel) -> JointDistribution:
    """The histogram joint an infinite sample would converge to."""
    cdf = [
        [regularized_incomplete_beta(p.alpha, p.beta, e) for e in BIN_EDGES]
        for p in (*model.expert_prediction, model.nonexpert_prediction)
    ]
    return JointDistribution(
        n_choices=model.n_choices,
        n_bins=N_PREDICTION_BINS,
        mass=_choice_rows(model, np.diff(cdf)),
    )


def _is_uninformative(model: PopulationModel) -> bool:
    """True when every choice has the same prediction density.

    That holds for all non-experts (ratio 1), or for experts that pick
    uniformly and share one Beta; the model's variety is then exactly 0.
    The test is exact on the model's parameters, unlike the table-level
    :func:`~fvariety.distributions.is_uninformative`, which needs a
    tolerance because tables built from densities carry round-off.
    """
    if model.nonexpert_ratio == 1.0:
        return True
    weights, shapes = model.expert_choice_weights, model.expert_prediction
    return all(w == weights[0] for w in weights) and all(
        p == shapes[0] for p in shapes
    )


def _densities(model: PopulationModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint densities of (choice=c, prediction=x) as a (C, len(x)) array,
    and their mean over choices, the uninformative mixture density.

    The mean is at least every density over C, so it is positive wherever
    one is.  A positive total below C times the smallest subnormal would
    round its mean to 0 and read as mass the mixture lacks (an infinite KL
    term); such a mean is raised to the smallest subnormal instead."""
    x = np.asarray(x, dtype=np.float64)
    shapes = (*model.expert_prediction, model.nonexpert_prediction)
    out = _choice_rows(model, _beta_pdf_rows(x, [(p.alpha, p.beta) for p in shapes]))
    total = np.zeros(len(x))
    for row in out:  # summed in choice order
        total += row
    mean = total / model.n_choices
    return out, np.where(total > 0.0, np.maximum(mean, _SMALLEST_SUBNORMAL), mean)


def _model_varieties(
    model: PopulationModel, kinds: Sequence[DivergenceKind], tol: float = QUADRATURE_TOL
) -> tuple[JointDistribution, list[float], list[float]]:
    """The model's :func:`exact_discretized_joint`, and the continuous and
    the discretized variety of every kind in ``kinds``.

    The kinks do not depend on the kind, so every choice's crossings are
    located in one scan and every kind is integrated against all of them.
    The kinds are the rows of one lockstep quadrature: each integrand call
    computes the densities on its nodes once and scores every kind on
    them, and each kind refines its own panels exactly as it would alone.

    Binning predictions cannot raise an f-divergence (the data-processing
    inequality), so a continuous value more than ``tol`` below its
    discretized one is a quadrature that missed mass, and raises
    :class:`QuadratureFailure` naming the kind.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    joint = exact_discretized_joint(model)
    conts = [0.0] * len(kinds)
    if not _is_uninformative(model):
        roots = np.sort(find_sign_changes(
            lambda x: np.subtract(*_densities(model, x)), 0.0, 1.0
        ))
        # choices that cross the mean at one point (two choices always do)
        # mostly get one root, but rounding can set them a cut apart, up to
        # the scan's tolerance; one break point serves them all, where two
        # would add a sliver panel for every kind
        kinks = roots[np.diff(roots, prepend=-np.inf) > ROOT_TOL].tolist()

        def integrand(x: np.ndarray) -> np.ndarray:
            return pointwise_contributions(*_densities(model, x), kinds).sum(axis=1)

        try:
            conts = adaptive_quadrature(integrand, 0.0, 1.0, tol, kinks)
        except QuadratureFailure as exc:
            raise QuadratureFailure(f"{kinds[exc.row].name}: {exc}") from None
    discs = _variety_stack(joint.mass, kinds).tolist()
    for kind, cont, disc in zip(kinds, conts, discs):
        if cont < disc - tol:
            raise QuadratureFailure(
                f"{kind.name}: continuous value {cont:.12g} is below the "
                f"discretized {disc:.12g} by more than tol {tol:g}; binning "
                f"cannot raise a divergence"
            )
    return joint, conts, discs


def continuous_f_variety(
    model: PopulationModel, kind: DivergenceKind, tol: float = QUADRATURE_TOL
) -> float:
    """Variety of the un-binned model, by adaptive quadrature.

    Integrates the choice-summed divergence contribution between each
    choice's joint density and the uninformative mixture density.  The
    |.|-type generators kink where those densities cross, so the
    crossings are located first, each to within 1e-13 by a grid scan
    repeated inside each bracket it finds
    (:func:`~fvariety.quadrature.find_sign_changes`), and passed to the
    integrator as break points.
    An uninformative model (all non-experts, or experts with uniform
    choice weights and one shared Beta) scores exactly 0 without
    quadrature.  Binning cannot raise a divergence, so a value more than
    ``tol`` below the discretized one raises :class:`QuadratureFailure`.
    """
    return _model_varieties(model, (kind,), tol)[1][0]


def draw_samples(
    model: PopulationModel, n: int, stream: RandomStream
) -> SampleSet:
    """n independent respondents from the model, predictions discretized.

    Each respondent is a non-expert with probability ``nonexpert_ratio``
    (uniform choice, shared Beta prediction), otherwise an expert (choice
    by weight, per-choice Beta prediction).
    """
    n = _shape_count("sample size", n)
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    rng = stream.generator
    is_noise = rng.random(n) < model.nonexpert_ratio
    n_noise = int(is_noise.sum())

    choices = np.empty(n, dtype=np.intp)
    choices[is_noise] = rng.integers(0, model.n_choices, size=n_noise)
    choices[~is_noise] = rng.choice(
        model.n_choices, size=n - n_noise, p=model.expert_choice_weights
    )

    predictions = np.empty(n)
    noise = model.nonexpert_prediction
    predictions[is_noise] = rng.beta(noise.alpha, noise.beta, size=n_noise)
    for c in range(model.n_choices):
        mask = (~is_noise) & (choices == c)
        params = model.expert_prediction[c]
        predictions[mask] = rng.beta(params.alpha, params.beta, size=int(mask.sum()))

    return SampleSet(
        n_choices=model.n_choices,
        n_bins=N_PREDICTION_BINS,
        choices=choices,
        bins=_discretize_array(predictions),
    )
