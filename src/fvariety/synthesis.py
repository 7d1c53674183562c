"""Synthetic populations: Beta-mixture experts plus uniform non-experts.

Each expert picks choice c with weight w_c and draws a prediction from a
per-choice Beta density; each non-expert picks uniformly and draws from a
shared Beta density, which makes the non-expert sub-population exactly
uninformative.  The two are mixed with ratio ``nonexpert_ratio``.

The module provides three views of the same model:

* ``draw_samples``        - finite samples, predictions snapped to 11 bins
* ``exact_discretized_joint`` - the infinite-sample limit of those histograms
* ``continuous_f_variety``    - the un-binned metric, by adaptive quadrature
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Sequence

import numpy as np

from .distributions import JointDistribution
from .divergence import DivergenceKind, f_variety, pointwise_contributions
from .errors import BadShape, BadWeights, DomainError, QuadratureFailure
from .estimation import N_PREDICTION_BINS, SampleSet
from .quadrature import adaptive_quadrature, find_sign_changes
from .sampling import RandomStream
from .special import beta_pdf, regularized_incomplete_beta

# Half-up binning to the options {0%, 10%, ..., 100%}: edges at 0.05, ..., 0.95.
BIN_EDGES = np.concatenate(([0.0], np.arange(N_PREDICTION_BINS - 1) / 10 + 0.05, [1.0]))


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
        if self.n_choices < 2:
            raise BadShape(f"need at least 2 choices, got {self.n_choices}")
        weights = tuple(float(w) for w in self.expert_choice_weights)
        if len(weights) != self.n_choices:
            raise BadShape(
                f"{len(weights)} choice weights for {self.n_choices} choices"
            )
        if any(w < 0.0 for w in weights):
            raise BadWeights(f"negative choice weight in {weights}")
        if abs(sum(weights) - 1.0) > 1e-12:
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
        return cls(
            n_choices=int(obj["n_choices"]),
            expert_choice_weights=tuple(float(w) for w in obj["expert_weights"]),
            expert_prediction=tuple(
                BetaParams(float(a), float(b)) for a, b in obj["expert_beta"]
            ),
            nonexpert_prediction=BetaParams(
                float(obj["nonexpert_beta"][0]), float(obj["nonexpert_beta"][1])
            ),
            nonexpert_ratio=float(obj["nonexpert_ratio"]),
        )

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


def beta_sample(stream: RandomStream, params: BetaParams) -> float:
    """One Beta draw; advances the stream."""
    return float(stream.generator.beta(params.alpha, params.beta))


def discretize_prediction(x: float) -> int:
    """Snap a prediction in [0, 1] to the nearest of the 11 options, half-up."""
    if math.isnan(x) or x < 0.0 or x > 1.0:
        raise DomainError(f"prediction must lie in [0, 1], got {x}")
    return int(math.floor(10.0 * x + 0.5))


def _discretize_array(x: np.ndarray) -> np.ndarray:
    return np.floor(10.0 * x + 0.5).astype(np.intp)


def _bin_probabilities(params: BetaParams) -> np.ndarray:
    cdf = np.array(
        [regularized_incomplete_beta(params.alpha, params.beta, e) for e in BIN_EDGES]
    )
    return np.diff(cdf)


def exact_discretized_joint(model: PopulationModel) -> JointDistribution:
    """The histogram joint an infinite sample would converge to."""
    ratio = model.nonexpert_ratio
    noise_bins = _bin_probabilities(model.nonexpert_prediction)
    mass = np.empty((model.n_choices, N_PREDICTION_BINS))
    for c in range(model.n_choices):
        expert_bins = _bin_probabilities(model.expert_prediction[c])
        mass[c] = (
            (1.0 - ratio) * model.expert_choice_weights[c] * expert_bins
            + ratio * noise_bins / model.n_choices
        )
    return JointDistribution(
        n_choices=model.n_choices, n_bins=N_PREDICTION_BINS, mass=mass
    )


def _is_uninformative(model: PopulationModel) -> bool:
    """True when every choice has the same prediction density.

    That holds for all non-experts (ratio 1), or for experts that pick
    uniformly and share one Beta; the model's variety is then exactly 0.
    """
    if model.nonexpert_ratio == 1.0:
        return True
    weights, shapes = model.expert_choice_weights, model.expert_prediction
    return all(w == weights[0] for w in weights) and all(
        p == shapes[0] for p in shapes
    )


def _densities(model: PopulationModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint densities of (choice=c, prediction=x) as a (C, len(x)) array,
    and their mean over choices, the uninformative mixture density."""
    ratio = model.nonexpert_ratio
    n = model.n_choices
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros((n, len(x)))
    if ratio > 0.0:
        noise = model.nonexpert_prediction
        noise_term = (ratio / n) * beta_pdf(x, noise.alpha, noise.beta)
    for c, (w, expert) in enumerate(
        zip(model.expert_choice_weights, model.expert_prediction)
    ):
        if ratio < 1.0 and w > 0.0:
            out[c] += (1.0 - ratio) * w * beta_pdf(x, expert.alpha, expert.beta)
        if ratio > 0.0:
            out[c] += noise_term
    total = np.zeros(len(x))
    for row in out:  # summed in choice order
        total += row
    return out, total / n


def _continuous_varieties(
    model: PopulationModel, kinds: Sequence[DivergenceKind], tol: float = 1e-8
) -> list[float]:
    """:func:`continuous_f_variety` of every kind in ``kinds``.

    Each choice's kinks do not depend on the kind, so they are located
    once and every kind is integrated against them.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if _is_uninformative(model):
        return [0.0] * len(kinds)
    totals = [0.0] * len(kinds)
    per_choice_tol = tol / model.n_choices
    for c in range(model.n_choices):

        def gap(x: np.ndarray, c=c) -> np.ndarray:
            dens, mean = _densities(model, x)
            return dens[c] - mean

        kinks = find_sign_changes(gap, 0.0, 1.0)
        for k, kind in enumerate(kinds):

            def integrand(x: np.ndarray, c=c, kind=kind) -> np.ndarray:
                dens, mean = _densities(model, x)
                return pointwise_contributions(dens[c], mean, kind)

            try:
                totals[k] += adaptive_quadrature(
                    integrand, 0.0, 1.0, per_choice_tol, break_points=kinks
                )
            except QuadratureFailure as exc:
                raise QuadratureFailure(f"{kind.name}, choice {c}: {exc}") from None
    return totals


def continuous_f_variety(
    model: PopulationModel, kind: DivergenceKind, tol: float = 1e-8
) -> float:
    """Variety of the un-binned model, by adaptive quadrature.

    Integrates, per choice, the divergence contribution between the
    choice's joint density and the uninformative mixture density.  The
    |.|-type generators kink where those densities cross, so crossings
    are bisected first and passed to the integrator as break points.
    An uninformative model (all non-experts, or experts with uniform
    choice weights and one shared Beta) scores exactly 0 without
    quadrature.
    """
    return _continuous_varieties(model, (kind,), tol)[0]


def draw_samples(
    model: PopulationModel, n: int, stream: RandomStream
) -> SampleSet:
    """n independent respondents from the model, predictions discretized.

    Each respondent is a non-expert with probability ``nonexpert_ratio``
    (uniform choice, shared Beta prediction), otherwise an expert (choice
    by weight, per-choice Beta prediction).
    """
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
