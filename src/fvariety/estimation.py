"""Plug-in estimation from observed (choice, prediction-bin) count tables.

A sample is its ``(n_choices, n_bins)`` integer table of answer counts,
one answer per respondent, so its total is the respondent count.  The
empirical joint is the raw normalized table; there is no smoothing, so
zero-count cells are genuine zeros.  Group comparisons follow the
equalized-subsampling protocol: the larger group is repeatedly subsampled
without replacement down to the smaller group's respondent count, which
removes sample-size effects from the metric and puts the error bar on
exactly one side.

The sweep's tables and the comparisons' subsample tables are drawn here
(``_sample_tables``, ``_subsample_tables``), and every count table that
the sweep and the survey analysis score is scored here
(``_count_varieties``, ``_group_varieties``, ``_trial_std``), for every
requested kind in one kernel call per stack.  These stay private: they
work on raw count stacks only those callers hold, without the checks of
the public entry points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .distributions import JointDistribution, _shape_count
from .divergence import DivergenceKind, _variety_stack, f_variety
from .errors import BadShape, EmptySampleSet, ShapeMismatch
from .sampling import RandomStream

# Subsamples of the larger group in a comparison, unless asked otherwise.
DEFAULT_SUBSAMPLE_TRIALS = 1000

# Relative spread below which trial values are one value up to round-off.
_ROUND_OFF = 1e-12

# Count tables per stacked kernel call: 256 tables of 2 x 11 cells keep
# the kernel's dozen temporaries within ~0.5 MB, plus ~45 KB per kind.
_KERNEL_BLOCK = 256


def _count_varieties(counts: np.ndarray, kinds: Sequence[DivergenceKind]) -> np.ndarray:
    """``(len(kinds), trials)`` empirical varieties of a ``(trials, C, B)`` count stack.

    Each table is normalized once, as :func:`empirical_joint` stores it:
    divided by n, then by its float total, as :class:`JointDistribution`
    does.  Tables are scored ``_KERNEL_BLOCK`` at a time, so the kernel's
    temporaries stay in cache and do not grow with the trial count.
    """
    values = []
    for start in range(0, len(counts), _KERNEL_BLOCK):
        block = counts[start:start + _KERNEL_BLOCK]
        mass = block / block.sum(axis=(-2, -1), keepdims=True)
        values.append(
            _variety_stack(mass / mass.sum(axis=(-2, -1), keepdims=True), kinds)
        )
    return np.concatenate(values, axis=1)


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


def _checked_counts(table: Any) -> np.ndarray:
    """``table`` as an intp array, checked to be a count table.

    It must be a 2-D integer array (not bool) of at least 2 choices and 1
    bin with no negative cell, else :class:`BadShape`; a table with no
    answers raises :class:`EmptySampleSet`.
    """
    counts = np.asarray(table)
    if not np.issubdtype(counts.dtype, np.integer):
        raise BadShape(f"count table must be integers, got dtype {counts.dtype}")
    if counts.ndim != 2 or counts.shape[0] < 2 or counts.shape[1] < 1:
        raise BadShape(
            f"count table has shape {counts.shape}, need (n_choices >= 2, n_bins >= 1)"
        )
    # one dtype for every table, so two groups stack as integers
    counts = counts.astype(np.intp, copy=False)
    if np.any(counts < 0):
        raise BadShape(f"count table has a negative cell, {counts.min()}")
    if not counts.any():
        raise EmptySampleSet("cannot estimate a distribution from no observations")
    return counts


def empirical_joint(counts: np.ndarray) -> JointDistribution:
    """Normalized count table: entry (c, b) = counts[c, b] / n, n the total.

    ``counts`` is a ``(n_choices, n_bins)`` integer table, as
    :func:`draw_samples` and :func:`extract_samples` return.
    """
    counts = _checked_counts(counts)
    n_choices, n_bins = counts.shape
    return JointDistribution(
        n_choices=n_choices, n_bins=n_bins, mass=counts / counts.sum()
    )


def empirical_f_variety(counts: np.ndarray, kind: DivergenceKind) -> float:
    """Variety of the empirical joint.  Positively biased on noise at small n."""
    return f_variety(empirical_joint(counts), kind)


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
    are drawn iid and then binned, so the table that :func:`draw_samples`
    returns is Multinomial(n, mass): all trials are one call on ``stream``.
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
    tables are drawn once, on ``stream``, and scored for every kind at once.
    """
    fulls = _count_varieties(tables, kinds)
    if len(tables) == 1:
        return [(full, None) for full in fulls]
    size_a, size_b = tables.sum(axis=(1, 2)).tolist()
    small, large = (0, 1) if size_a <= size_b else (1, 0)
    size = min(size_a, size_b)
    if size_a == size_b:  # every subsample would be the whole second group
        stats = [(float(full[large]), 0.0) for full in fulls]
    else:
        subsamples = _subsample_tables(tables[large], size, trials, stream)
        trial_values = _count_varieties(subsamples, kinds)
        stats = [(float(values.mean()), _trial_std(values)) for values in trial_values]
    return [
        (full, GroupComparison(kind.name, float(full[small]), mean, std, trials, size))
        for kind, full, (mean, std) in zip(kinds, fulls, stats)
    ]


def compare_groups_equalized(
    group_a: np.ndarray,
    group_b: np.ndarray,
    kind: DivergenceKind,
    trials: int = DEFAULT_SUBSAMPLE_TRIALS,
    stream: RandomStream | None = None,
) -> GroupComparison:
    """Compare two groups' count tables at equal respondent counts.

    Both tables must have one ``(n_choices, n_bins)`` shape, else
    :class:`ShapeMismatch`.  A group's answers are its respondents, one
    answer each.  The smaller group's metric is computed once on
    everything it has; the larger group's answers are subsampled without
    replacement to the same count ``trials`` times, as count tables drawn
    from its own.  When sizes are equal the argument order is kept, and
    every subsample is the whole group, so the larger group's mean is its
    own full-sample value and the std is exactly 0.
    """
    group_a, group_b = _checked_counts(group_a), _checked_counts(group_b)
    if group_a.shape != group_b.shape:
        raise ShapeMismatch(f"group shapes {group_a.shape} and {group_b.shape} differ")
    trials = _trial_count(trials)
    if stream is None:
        stream = RandomStream(0)

    tables = np.stack([group_a, group_b])
    [(_, comparison)] = _group_varieties(tables, [kind], trials, stream)
    return comparison
