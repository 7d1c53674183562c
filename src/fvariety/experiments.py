"""Ratio-and-sample-size sweeps with plot-ready tables.

For every (divergence, non-expert ratio, sample size) grid point the
sweep draws ``trials_per_point`` independent sample sets, records the
mean and std of the empirical variety, and attaches the two theoretical
values (continuous-model quadrature and exact discretized joint).
Per-trial seeds are derived from (base_seed, kind, ratio index, n, trial
index), so results are identical at any parallelism level and extending
the grid never perturbs existing points.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .divergence import f_variety, get_kind
from .errors import ConfigError, IoError
from .estimation import N_PREDICTION_BINS, _count_varieties, _trial_std
from .sampling import RandomStream
from .synthesis import (
    PopulationModel,
    _continuous_varieties,
    draw_samples,
    exact_discretized_joint,
)

DEFAULT_RATIOS = tuple(k / 10 for k in range(11))
DEFAULT_SAMPLE_SIZES = (100, 200, 500, 1000)


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for one sweep run."""

    model: PopulationModel
    ratios: tuple[float, ...] = DEFAULT_RATIOS
    sample_sizes: tuple[int, ...] = DEFAULT_SAMPLE_SIZES
    trials_per_point: int = 100
    divergences: tuple[str, ...] = ("tvd",)
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not self.ratios:
            raise ConfigError("ratios list is empty")
        if any(not 0.0 <= r <= 1.0 for r in self.ratios):
            raise ConfigError(f"ratios must lie in [0, 1], got {self.ratios}")
        if not self.sample_sizes or any(n < 1 for n in self.sample_sizes):
            raise ConfigError(f"sample sizes must be >= 1, got {self.sample_sizes}")
        if self.trials_per_point < 2:
            raise ConfigError(
                f"need at least 2 trials for a std, got {self.trials_per_point}"
            )
        if not self.divergences:
            raise ConfigError("divergences list is empty")
        for name in self.divergences:
            get_kind(name)  # raises on unknown names


@dataclass(frozen=True)
class SweepRow:
    kind: str
    ratio: float
    n: int
    empirical_mean: float
    empirical_std: float
    theoretical_continuous: float
    theoretical_discretized: float


def _run_point(args: tuple[SweepConfig, str, int, int]) -> tuple[float, float]:
    """Empirical mean/std for one (kind, ratio, n) grid point."""
    config, kind_name, ratio_index, n = args
    kind = get_kind(kind_name)
    model = config.model.with_ratio(config.ratios[ratio_index])
    root = RandomStream(config.base_seed)
    counts = np.empty(
        (config.trials_per_point, model.n_choices, N_PREDICTION_BINS), dtype=np.intp
    )
    for t in range(config.trials_per_point):
        stream = root.spawn(kind_name, ratio_index, n, t)
        counts[t] = draw_samples(model, n, stream).count_table()
    values = _count_varieties(counts, kind)
    return float(values.mean()), _trial_std(values)


def run_sweep(config: SweepConfig, jobs: int = 1) -> tuple[SweepRow, ...]:
    """Run the full grid; ``jobs`` > 1 fans points out to worker processes."""
    kinds = [get_kind(name) for name in config.divergences]
    theory: dict[tuple[str, int], tuple[float, float]] = {}
    for ri, ratio in enumerate(config.ratios):
        model = config.model.with_ratio(ratio)
        joint = exact_discretized_joint(model)
        conts = _continuous_varieties(model, kinds)
        for kind_name, kind, cont in zip(config.divergences, kinds, conts):
            theory[(kind_name, ri)] = (cont, f_variety(joint, kind))

    points = [
        (config, kind_name, ri, n)
        for kind_name in config.divergences
        for ri in range(len(config.ratios))
        for n in config.sample_sizes
    ]
    # a fork-based pool starts all its workers at the first submit, so
    # never ask for more of them than there are points
    workers = min(jobs, len(points))
    if workers <= 1:
        stats = [_run_point(p) for p in points]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            stats = list(pool.map(_run_point, points))

    rows = []
    for (cfg, kind_name, ri, n), (mean, std) in zip(points, stats):
        cont, disc = theory[(kind_name, ri)]
        rows.append(
            SweepRow(
                kind=kind_name,
                ratio=cfg.ratios[ri],
                n=n,
                empirical_mean=mean,
                empirical_std=std,
                theoretical_continuous=cont,
                theoretical_discretized=disc,
            )
        )
    return tuple(rows)


CSV_HEADER = "kind,ratio,n,mean,std,theory_cont,theory_disc"


def _sig6(x: float) -> str:
    return f"{x:.6g}"


def write_sweep(
    rows: tuple[SweepRow, ...], path: str, format: Literal["csv", "json"] = "csv"
) -> None:
    """Write rows to ``path``; reals carry 6 significant digits.

    Output bytes depend only on ``rows``, so identical runs produce
    identical files.
    """
    if format == "csv":
        lines = [CSV_HEADER]
        for r in rows:
            lines.append(
                f"{r.kind},{_sig6(r.ratio)},{r.n},{_sig6(r.empirical_mean)},"
                f"{_sig6(r.empirical_std)},{_sig6(r.theoretical_continuous)},"
                f"{_sig6(r.theoretical_discretized)}"
            )
        payload = "\n".join(lines) + "\n"
    elif format == "json":
        records = [
            {
                "kind": r.kind,
                "ratio": float(_sig6(r.ratio)),
                "n": r.n,
                "mean": float(_sig6(r.empirical_mean)),
                "std": float(_sig6(r.empirical_std)),
                "theory_cont": float(_sig6(r.theoretical_continuous)),
                "theory_disc": float(_sig6(r.theoretical_discretized)),
            }
            for r in rows
        ]
        payload = json.dumps(records, indent=2) + "\n"
    else:
        raise ConfigError(f"unknown output format {format!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
