"""Ratio-and-sample-size sweeps with plot-ready tables.

For every (non-expert ratio, sample size) grid point the sweep draws
``trials_per_point`` independent count tables, scores them with every
requested divergence, records the mean and std of each kind's empirical
variety, and attaches the two theoretical values (continuous-model
quadrature and exact discretized joint).  The whole grid runs in one
process.  A point's tables come from one stream derived from (base_seed,
ratio index, n), so results are identical across runs, and adding
ratios, sizes or kinds never perturbs existing points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .divergence import get_kind
from .errors import ConfigError, IoError
from .estimation import _count_varieties, _trial_std
from .sampling import RandomStream
from .synthesis import PopulationModel, _model_varieties

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


def run_sweep(config: SweepConfig) -> tuple[SweepRow, ...]:
    """Run the full grid; rows are kind-major, in ``config.divergences`` order.

    Every kind scores the same tables of a point, drawn from the stream
    ``spawn("tables", ratio index, n)``.
    """
    kinds = [get_kind(name) for name in config.divergences]
    root = RandomStream(config.base_seed)
    blocks: list[list[SweepRow]] = [[] for _ in kinds]  # one per entry, duplicates kept
    for ri, ratio in enumerate(config.ratios):
        joint, conts, discs = _model_varieties(config.model.with_ratio(ratio), kinds)
        for n in config.sample_sizes:
            stream = root.spawn("tables", ri, n)
            counts = _sample_tables(joint.mass, n, config.trials_per_point, stream)
            for block, name, kind, cont, disc in zip(
                blocks, config.divergences, kinds, conts, discs
            ):
                values = _count_varieties(counts, kind)
                block.append(
                    SweepRow(
                        kind=name,
                        ratio=float(ratio),
                        n=n,
                        empirical_mean=float(values.mean()),
                        empirical_std=_trial_std(values),
                        theoretical_continuous=cont,
                        theoretical_discretized=disc,
                    )
                )
    return tuple(row for block in blocks for row in block)


# (column, SweepRow field) of both output formats, in order; the float
# fields are written with 6 significant digits
_COLUMNS = (
    ("kind", "kind"),
    ("ratio", "ratio"),
    ("n", "n"),
    ("mean", "empirical_mean"),
    ("std", "empirical_std"),
    ("theory_cont", "theoretical_continuous"),
    ("theory_disc", "theoretical_discretized"),
)
CSV_HEADER = ",".join(column for column, _ in _COLUMNS)


def _sig6(x: float) -> str:
    return f"{x:.6g}"


def write_sweep(
    rows: tuple[SweepRow, ...], path: str, format: Literal["csv", "json"] = "csv"
) -> None:
    """Write rows to ``path``; reals carry 6 significant digits.

    Output bytes depend only on ``rows``, so identical runs produce
    identical files.
    """
    cells = ([(column, getattr(r, name)) for column, name in _COLUMNS] for r in rows)
    if format == "csv":
        lines = [CSV_HEADER] + [
            ",".join(_sig6(v) if isinstance(v, float) else str(v) for _, v in row)
            for row in cells
        ]
        payload = "\n".join(lines) + "\n"
    elif format == "json":
        records = [
            {c: float(_sig6(v)) if isinstance(v, float) else v for c, v in row}
            for row in cells
        ]
        payload = json.dumps(records, indent=2) + "\n"
    else:
        raise ConfigError(f"unknown output format {format!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
