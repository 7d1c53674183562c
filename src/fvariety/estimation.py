"""Plug-in estimation from observed (choice, prediction-bin) samples.

The empirical joint is the raw normalized histogram; there is no
smoothing, so zero-count cells are genuine zeros.  Group comparisons
follow the equalized-subsampling protocol: the larger group is repeatedly
subsampled without replacement down to the smaller group's respondent
count, which removes sample-size effects from the metric and puts the
error bar on exactly one side.

``_count_varieties`` and ``_trial_std`` stay private although the sweep
in :mod:`fvariety.experiments` calls them: they score raw count stacks
that only the two trial loops build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .distributions import JointDistribution
from .divergence import DivergenceKind, _variety_stack, f_variety
from .errors import BadShape, EmptySampleSet
from .sampling import RandomStream

# Prediction options 0%, 10%, ..., 100%.
N_PREDICTION_BINS = 11

# Relative spread below which trial values are one value up to round-off.
_ROUND_OFF = 1e-12

# Count tables per stacked kernel call: 256 tables of 2 x 11 cells keep
# the kernel's dozen temporaries within ~0.5 MB.
_KERNEL_BLOCK = 256


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Observations as parallel columns plus the (n_choices, n_bins) shape.

    ``choices[i]`` and ``bins[i]`` are observation i's choice index and
    prediction bin.  Each observation is one respondent's answer, so the
    observation count is the respondent count.  The arrays are read-only
    intp copies.
    """

    n_choices: int
    n_bins: int
    choices: np.ndarray
    bins: np.ndarray

    def __post_init__(self) -> None:
        if self.n_choices < 2 or self.n_bins < 1:
            raise BadShape(
                f"sample shape ({self.n_choices}, {self.n_bins}) is invalid"
            )
        choices = np.array(self.choices, dtype=np.intp).reshape(-1)
        bins = np.array(self.bins, dtype=np.intp).reshape(-1)
        if len(choices) != len(bins):
            raise BadShape(f"{len(choices)} choices but {len(bins)} prediction bins")
        bad = (choices < 0) | (choices >= self.n_choices)
        if np.any(bad):
            raise BadShape(
                f"choice {choices[bad][0]} outside [0, {self.n_choices})"
            )
        bad = (bins < 0) | (bins >= self.n_bins)
        if np.any(bad):
            raise BadShape(f"prediction bin {bins[bad][0]} outside [0, {self.n_bins})")
        choices.flags.writeable = False
        bins.flags.writeable = False
        object.__setattr__(self, "choices", choices)
        object.__setattr__(self, "bins", bins)

    def __len__(self) -> int:
        return len(self.choices)

    def count_table(self) -> np.ndarray:
        """(n_choices, n_bins) table of observation counts."""
        cells = self.choices * self.n_bins + self.bins
        counts = np.bincount(cells, minlength=self.n_choices * self.n_bins)
        return counts.reshape(self.n_choices, self.n_bins)


def _count_varieties(counts: np.ndarray, kind: DivergenceKind) -> np.ndarray:
    """Empirical variety of every count table in a ``(trials, C, B)`` stack.

    Each table is normalized as :func:`empirical_joint` stores it: divided
    by n, then by its float total, as :class:`JointDistribution` does.
    Tables are scored ``_KERNEL_BLOCK`` at a time, so the kernel's
    temporaries stay in cache and do not grow with the trial count.
    """
    values = []
    for start in range(0, len(counts), _KERNEL_BLOCK):
        block = counts[start:start + _KERNEL_BLOCK]
        mass = block / block.sum(axis=(-2, -1), keepdims=True)
        values.append(
            _variety_stack(mass / mass.sum(axis=(-2, -1), keepdims=True), kind)
        )
    return np.concatenate(values)


def _trial_std(values: np.ndarray) -> float:
    """Sample std of trial values; exactly 0 when they agree to round-off.

    Different count tables can score the same value along different
    rounding paths, a few ulps apart, and the float mean of equal values
    need not equal them; either leaves a std of order 1e-16.  A spread
    within ``_ROUND_OFF`` of the largest value counts as one value, which
    moves a reported std by at most that much.
    """
    if len(values) < 2 or np.ptp(values) <= _ROUND_OFF * np.max(np.abs(values)):
        return 0.0
    return float(values.std(ddof=1))


def empirical_joint(samples: SampleSet) -> JointDistribution:
    """Normalized count table: entry (c, b) = count(c, b) / n."""
    n = len(samples)
    if n == 0:
        raise EmptySampleSet("cannot estimate a distribution from no observations")
    return JointDistribution(
        n_choices=samples.n_choices,
        n_bins=samples.n_bins,
        mass=samples.count_table() / n,
    )


def empirical_f_variety(samples: SampleSet, kind: DivergenceKind) -> float:
    """Variety of the empirical joint.  Positively biased on noise at small n."""
    return f_variety(empirical_joint(samples), kind)


@dataclass(frozen=True)
class GroupComparison:
    """Outcome of an equalized two-group comparison.

    ``group_a_value`` is the smaller group's metric on its full sample
    (computed once, no error bar); ``group_b_mean``/``group_b_std`` are
    the larger group's metric over repeated subsamples of
    ``subsample_size`` respondents drawn without replacement.
    """

    metric_name: str
    group_a_value: float
    group_b_mean: float
    group_b_std: float
    trials: int
    subsample_size: int

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "metric": self.metric_name,
            "group_a": self.group_a_value,
            "group_b_mean": self.group_b_mean,
            "group_b_std": self.group_b_std,
            "trials": self.trials,
            "subsample_size": self.subsample_size,
        }


def _subsampled_values(
    samples: SampleSet,
    size: int,
    kind: DivergenceKind,
    trials: int,
    stream: RandomStream,
) -> np.ndarray:
    """Metric over ``trials`` without-replacement subsamples of ``size`` answers.

    Each answer is one respondent's, so a subsample of answers is a
    subsample of respondents.  Each trial uses its own derived stream, so
    values do not depend on evaluation order.
    """
    n_cells = samples.n_choices * samples.n_bins
    cells = samples.choices * samples.n_bins + samples.bins
    counts = np.empty((trials, n_cells), dtype=np.intp)
    for t in range(trials):
        rng = stream.spawn("subsample-trial", t).generator
        picked = rng.choice(len(samples), size=size, replace=False)
        counts[t] = np.bincount(cells[picked], minlength=n_cells)
    return _count_varieties(
        counts.reshape(trials, samples.n_choices, samples.n_bins), kind
    )


def compare_groups_equalized(
    group_a: SampleSet,
    group_b: SampleSet,
    kind: DivergenceKind,
    trials: int = 1000,
    stream: RandomStream | None = None,
) -> GroupComparison:
    """Compare two groups at equal respondent counts.

    A group's answers are its respondents, one answer each.  The smaller
    group's metric is computed once on everything it has; the larger
    group's answers are subsampled without replacement to the same count
    ``trials`` times.  When sizes are equal the argument order is
    kept, and every subsample is the whole group, so the larger group's
    mean is its own full-sample value and the std is exactly 0.
    """
    if len(group_a) == 0 or len(group_b) == 0:
        raise EmptySampleSet("both groups need at least one observation")
    if trials < 1:
        raise EmptySampleSet(f"trials must be >= 1, got {trials}")
    if stream is None:
        stream = RandomStream(0)

    size_a, size_b = len(group_a), len(group_b)
    small, large = (group_a, group_b) if size_a <= size_b else (group_b, group_a)

    size = min(size_a, size_b)
    once = empirical_f_variety(small, kind)
    if size_a == size_b:
        mean, std = empirical_f_variety(large, kind), 0.0
    else:
        values = _subsampled_values(large, size, kind, trials, stream)
        mean, std = float(values.mean()), _trial_std(values)
    return GroupComparison(
        metric_name=kind.name,
        group_a_value=once,
        group_b_mean=mean,
        group_b_std=std,
        trials=trials,
        subsample_size=size,
    )
