"""Ratio-and-sample-size sweeps with plot-ready tables.

For every (non-expert ratio, sample size) grid point the sweep draws
``trials_per_point`` independent count tables through
:mod:`fvariety.estimation`, which holds every table draw, scores them with
every requested divergence, records the mean and std of each kind's
empirical variety, and attaches the two theoretical values (continuous-model
quadrature and exact discretized joint).  The whole grid runs in one
process.  A point's tables come from one stream derived from (base_seed,
ratio index, n), so results are identical across runs, and adding
ratios, sizes or kinds never perturbs existing points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Literal

from .distributions import _shape_count
from .divergence import get_kind
from .errors import ConfigError, IoError
from .estimation import _count_varieties, _sample_tables, _trial_std
from .sampling import RandomStream
from .synthesis import PopulationModel, _model_varieties

DEFAULT_RATIOS = tuple(k / 10 for k in range(11))
DEFAULT_SAMPLE_SIZES = (100, 200, 500, 1000)
DEFAULT_TRIALS_PER_POINT = 100


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for one sweep run."""

    model: PopulationModel
    ratios: tuple[float, ...] = DEFAULT_RATIOS
    sample_sizes: tuple[int, ...] = DEFAULT_SAMPLE_SIZES
    trials_per_point: int = DEFAULT_TRIALS_PER_POINT
    divergences: tuple[str, ...] = ("tvd",)
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not self.ratios:
            raise ConfigError("ratios list is empty")
        if any(not 0.0 <= r <= 1.0 for r in self.ratios):
            raise ConfigError(f"ratios must lie in [0, 1], got {self.ratios}")
        sizes = tuple(_shape_count("sample size", n) for n in self.sample_sizes)
        if not sizes or any(n < 1 for n in sizes):
            raise ConfigError(f"sample sizes must be >= 1, got {self.sample_sizes}")
        trials = _shape_count("trials_per_point", self.trials_per_point)
        if trials < 2:
            raise ConfigError(f"need at least 2 trials for a std, got {trials}")
        if not self.divergences:
            raise ConfigError("divergences list is empty")
        for name in self.divergences:
            get_kind(name)  # raises on unknown names
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "trials_per_point", trials)


@dataclass(frozen=True)
class SweepRow:
    kind: str
    ratio: float
    n: int
    empirical_mean: float
    empirical_std: float
    theoretical_continuous: float
    theoretical_discretized: float


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
            scored = _count_varieties(counts, kinds)
            for block, kind, cont, disc, values in zip(blocks, kinds, conts, discs, scored):
                block.append(
                    SweepRow(
                        kind=kind.name,
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
