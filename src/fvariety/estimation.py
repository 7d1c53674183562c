"""Plug-in estimation from observed (choice, prediction-bin) samples.

The empirical joint is the raw normalized histogram; there is no
smoothing, so zero-count cells are genuine zeros.  Group comparisons
follow the equalized-subsampling protocol: the larger group is repeatedly
subsampled without replacement down to the smaller group's respondent
count, which removes sample-size effects from the metric and puts the
error bar on exactly one side.

Every count table that the sweep and the survey analysis score is
counted or drawn here (``_sample_tables``, ``_subsample_tables``) and
scored here (``_count_varieties``, ``_group_varieties``, ``_trial_std``).
These stay private: they work on raw count stacks only those callers hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .distributions import JointDistribution, _shape_count
from .divergence import DivergenceKind, _variety_stack, f_variety
from .errors import BadShape, EmptySampleSet, ShapeMismatch
from .sampling import RandomStream

# Prediction options 0%, 10%, ..., 100%, and the percent between two of them.
N_PREDICTION_BINS = 11
_PCT_STEP = 100 // (N_PREDICTION_BINS - 1)

# Subsamples of the larger group in a comparison, unless asked otherwise.
DEFAULT_SUBSAMPLE_TRIALS = 1000

# Relative spread below which trial values are one value up to round-off.
_ROUND_OFF = 1e-12

# Count tables per stacked kernel call: 256 tables of 2 x 11 cells keep
# the kernel's dozen temporaries within ~0.5 MB.
_KERNEL_BLOCK = 256


def _index_column(name: str, column: Any) -> np.ndarray:
    """``column`` as a flat intp copy.

    A non-empty column must have an integer dtype, so float and bool
    columns are refused rather than truncated; an empty column of any
    dtype (``[]`` is float) is an empty sample.
    """
    values = np.asarray(column).reshape(-1)
    if len(values) and not np.issubdtype(values.dtype, np.integer):
        raise BadShape(f"{name} must be integers, got dtype {values.dtype}")
    return values.astype(np.intp)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Observations as parallel columns plus the (n_choices, n_bins) shape.

    ``choices[i]`` and ``bins[i]`` are observation i's choice index and
    prediction bin.  Each observation is one respondent's answer, so the
    observation count is the respondent count.  The arrays are read-only
    intp copies; a non-empty column must have an integer dtype.
    """

    n_choices: int
    n_bins: int
    choices: np.ndarray
    bins: np.ndarray

    def __post_init__(self) -> None:
        n_choices = _shape_count("n_choices", self.n_choices)
        n_bins = _shape_count("n_bins", self.n_bins)
        if n_choices < 2 or n_bins < 1:
            raise BadShape(f"sample shape ({n_choices}, {n_bins}) is invalid")
        object.__setattr__(self, "n_choices", n_choices)
        object.__setattr__(self, "n_bins", n_bins)
        choices = _index_column("choices", self.choices)
        bins = _index_column("bins", self.bins)
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


def _sample_tables(
    mass: np.ndarray, n: int, trials: int, stream: RandomStream
) -> np.ndarray:
    """``(trials, C, B)`` count tables of ``trials`` samples of n respondents.

    ``mass`` is the model's :func:`exact_discretized_joint`.  Respondents
    are drawn iid and then binned, so the count table of
    :func:`draw_samples` is Multinomial(n, mass): all trials are one call
    on ``stream``.
    """
    p = mass.ravel()
    draws = stream.generator.multinomial(n, p / p.sum(), size=trials)
    return draws.reshape(trials, *mass.shape)


def _subsample_tables(
    table: np.ndarray, size: int, trials: int, stream: RandomStream
) -> np.ndarray:
    """``(trials, C, B)`` count tables of without-replacement subsamples.

    A subsample of ``size`` answers from a group whose answers have the
    count ``table`` is scored only through its own count table, and that
    table is one multivariate hypergeometric draw from ``table``: all
    trials are one call on ``stream``.  The method is pinned so the draws
    do not depend on numpy's default.
    """
    draws = stream.generator.multivariate_hypergeometric(
        table.ravel(), size, size=trials, method="marginals"
    )
    return draws.reshape(trials, *table.shape)


def _trial_count(trials: Any) -> int:
    """``trials`` as a Python int; a non-integer or a count below 1 raises."""
    trials = _shape_count("trials", trials)
    if trials < 1:
        raise EmptySampleSet(f"trials must be >= 1, got {trials}")
    return trials


def _group_varieties(
    tables: np.ndarray, kinds: Sequence[DivergenceKind], trials: int, stream: RandomStream
) -> list[tuple[np.ndarray, GroupComparison | None]]:
    """Per kind: each group's full-sample variety in a ``(G, C, B)`` count
    stack and, for two groups, their comparison (see
    :func:`compare_groups_equalized`).  The larger group's subsample
    tables are drawn once, on ``stream``, and every kind scores them.
    """
    fulls = [_count_varieties(tables, kind) for kind in kinds]
    if len(tables) == 1:
        return [(full, None) for full in fulls]
    size_a, size_b = tables.sum(axis=(1, 2)).tolist()
    small, large = (0, 1) if size_a <= size_b else (1, 0)
    size = min(size_a, size_b)
    if size_a == size_b:  # every subsample would be the whole second group
        stats = [(float(full[large]), 0.0) for full in fulls]
    else:
        subsamples = _subsample_tables(tables[large], size, trials, stream)
        trial_values = (_count_varieties(subsamples, kind) for kind in kinds)
        stats = [(float(values.mean()), _trial_std(values)) for values in trial_values]
    return [
        (full, GroupComparison(kind.name, float(full[small]), mean, std, trials, size))
        for kind, full, (mean, std) in zip(kinds, fulls, stats)
    ]


def compare_groups_equalized(
    group_a: SampleSet,
    group_b: SampleSet,
    kind: DivergenceKind,
    trials: int = DEFAULT_SUBSAMPLE_TRIALS,
    stream: RandomStream | None = None,
) -> GroupComparison:
    """Compare two groups at equal respondent counts.

    Both groups must have one ``(n_choices, n_bins)`` shape, else
    :class:`ShapeMismatch`.  A group's answers are its respondents, one
    answer each.  The smaller group's metric is computed once on
    everything it has; the larger group's answers are subsampled without
    replacement to the same count ``trials`` times, as count tables drawn
    from its own, so the order of its answers cannot move them.  When
    sizes are equal the argument order is kept, and every subsample is the
    whole group, so the larger group's mean is its own full-sample value
    and the std is exactly 0.
    """
    if len(group_a) == 0 or len(group_b) == 0:
        raise EmptySampleSet("both groups need at least one observation")
    shape_a = (group_a.n_choices, group_a.n_bins)
    shape_b = (group_b.n_choices, group_b.n_bins)
    if shape_a != shape_b:
        raise ShapeMismatch(f"group shapes {shape_a} and {shape_b} differ")
    trials = _trial_count(trials)
    if stream is None:
        stream = RandomStream(0)

    tables = np.stack([group_a.count_table(), group_b.count_table()])
    [(_, comparison)] = _group_varieties(tables, [kind], trials, stream)
    return comparison
