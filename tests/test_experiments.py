import json

import numpy as np
import pytest

from fvariety import SweepConfig, get_preset, run_sweep, write_sweep
from fvariety.errors import ConfigError, IoError, InvalidGenerator
from fvariety.experiments import CSV_HEADER, DEFAULT_RATIOS, DEFAULT_SAMPLE_SIZES

SMALL = dict(
    ratios=(0.0, 0.5, 1.0),
    sample_sizes=(50, 100),
    trials_per_point=5,
    divergences=("tvd",),
    base_seed=77,
)


class TestSweepConfig:
    def test_defaults(self):
        config = SweepConfig(model=get_preset("uniform-1"))
        assert config.ratios == DEFAULT_RATIOS
        assert config.sample_sizes == DEFAULT_SAMPLE_SIZES
        assert config.trials_per_point == 100

    def test_ratio_out_of_range(self):
        with pytest.raises(ConfigError):
            SweepConfig(model=get_preset("uniform-1"), ratios=(0.0, 1.2))

    def test_bad_sample_size(self):
        with pytest.raises(ConfigError):
            SweepConfig(model=get_preset("uniform-1"), sample_sizes=(0,))

    def test_too_few_trials_for_std(self):
        with pytest.raises(ConfigError):
            SweepConfig(model=get_preset("uniform-1"), trials_per_point=1)

    def test_unknown_divergence(self):
        with pytest.raises(InvalidGenerator):
            SweepConfig(model=get_preset("uniform-1"), divergences=("nope",))

    def test_inline_model(self):
        config = SweepConfig(model=get_preset("uniform-2"))
        assert config.model == get_preset("uniform-2")


class TestRunSweep:
    def test_default_grid_yields_44_rows(self):
        config = SweepConfig(model=get_preset("uniform-1"), trials_per_point=2)
        assert len(run_sweep(config)) == 11 * 4

    def test_rows_ordered_and_theory_attached(self):
        rows = run_sweep(SweepConfig(model=get_preset("uniform-1"), **SMALL))
        keys = [(r.kind, r.ratio, r.n) for r in rows]
        assert keys == sorted(keys, key=lambda k: (0, k[1], k[2]))
        by_ratio = {}
        for r in rows:
            by_ratio.setdefault(r.ratio, set()).add(
                (r.theoretical_continuous, r.theoretical_discretized)
            )
        # theory depends only on (kind, ratio), not on n
        assert all(len(v) == 1 for v in by_ratio.values())
        last = rows[-1]
        assert last.ratio == 1.0
        assert last.theoretical_continuous == pytest.approx(0.0, abs=1e-8)

    def test_deterministic_across_runs_and_jobs(self):
        config = SweepConfig(model=get_preset("uniform-1"), **SMALL)
        sequential = run_sweep(config, jobs=1)
        again = run_sweep(config, jobs=1)
        parallel = run_sweep(config, jobs=3)
        assert sequential == again
        assert sequential == parallel

    def test_workers_capped_at_grid_points(self, monkeypatch):
        started = []

        class SerialPool:
            """Records the requested worker count and maps in-process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("fvariety.experiments.ProcessPoolExecutor", SerialPool)
        config = SweepConfig(
            model=get_preset("uniform-1"), **{**SMALL, "ratios": (0.5,)}
        )
        assert run_sweep(config, jobs=64) == run_sweep(config, jobs=1)
        assert started == [2]
        one_point = SweepConfig(
            model=get_preset("uniform-1"),
            **{**SMALL, "ratios": (0.5,), "sample_sizes": (50,)},
        )
        run_sweep(one_point, jobs=64)
        assert started == [2]  # a single point runs without a pool

    def test_adding_a_kind_does_not_perturb_existing_points(self):
        base = run_sweep(SweepConfig(model=get_preset("uniform-1"), **SMALL))
        extended = run_sweep(
            SweepConfig(
                model=get_preset("uniform-1"),
                **{**SMALL, "divergences": ("tvd", "pearson")},
            )
        )
        tvd_rows = tuple(r for r in extended if r.kind == "tvd")
        assert tvd_rows == base

    def test_std_columns_nonnegative(self):
        rows = run_sweep(SweepConfig(model=get_preset("non-uniform-2"), **SMALL))
        assert all(r.empirical_std >= 0.0 for r in rows)


class TestWriteSweep:
    def test_csv_layout(self, tmp_path):
        rows = run_sweep(SweepConfig(model=get_preset("uniform-1"), **SMALL))
        path = tmp_path / "sweep.csv"
        write_sweep(rows, str(path), format="csv")
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(rows)
        assert all(line.count(",") == 6 for line in lines)

    def test_byte_stable(self, tmp_path):
        rows = run_sweep(SweepConfig(model=get_preset("uniform-1"), **SMALL))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep(rows, str(a), format="csv")
        write_sweep(rows, str(b), format="csv")
        assert a.read_bytes() == b.read_bytes()

    def test_json_mirrors_rows(self, tmp_path):
        rows = run_sweep(SweepConfig(model=get_preset("uniform-1"), **SMALL))
        path = tmp_path / "sweep.json"
        write_sweep(rows, str(path), format="json")
        records = json.loads(path.read_text())
        assert len(records) == len(rows)
        assert set(records[0]) == {
            "kind", "ratio", "n", "mean", "std", "theory_cont", "theory_disc",
        }
        assert records[0]["kind"] == "tvd"

    def test_unwritable_path(self):
        rows = run_sweep(SweepConfig(model=get_preset("uniform-1"), **SMALL))
        with pytest.raises(IoError):
            write_sweep(rows, "/nonexistent-dir/sweep.csv", format="csv")

    def test_unknown_format(self, tmp_path):
        rows = run_sweep(SweepConfig(model=get_preset("uniform-1"), **SMALL))
        with pytest.raises(ConfigError):
            write_sweep(rows, str(tmp_path / "x"), format="yaml")


def test_empirical_means_approach_discretized_theory_with_n():
    config = SweepConfig(
        model=get_preset("uniform-1"),
        ratios=(0.0, 0.5, 1.0),
        sample_sizes=(100, 1000),
        trials_per_point=30,
        divergences=("tvd",),
        base_seed=11,
    )
    rows = run_sweep(config)
    gap = {
        n: np.mean([
            abs(r.empirical_mean - r.theoretical_discretized)
            for r in rows
            if r.n == n
        ])
        for n in (100, 1000)
    }
    assert gap[1000] < gap[100]


def test_monotone_trend_at_large_n():
    # visible monotone decrease along the ratio axis, up to one
    # statistically-small inversion
    config = SweepConfig(
        model=get_preset("uniform-1"),
        ratios=DEFAULT_RATIOS,
        sample_sizes=(1000,),
        trials_per_point=20,
        divergences=("tvd",),
        base_seed=5,
    )
    rows = run_sweep(config)
    means = [r.empirical_mean for r in rows]
    allowance = [2 * r.empirical_std / np.sqrt(config.trials_per_point) for r in rows]
    violations = [
        rise
        for a, b, tol in zip(means, means[1:], allowance)
        if (rise := b - a) > 0
        and rise > tol
    ]
    assert violations == []
