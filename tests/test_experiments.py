import json

import numpy as np
import pytest
from scipy.stats import ks_2samp

from fvariety import (
    TVD,
    BetaParams,
    PopulationModel,
    RandomStream,
    SweepConfig,
    draw_samples,
    exact_discretized_joint,
    get_preset,
    run_sweep,
    write_sweep,
)
from fvariety.errors import BadShape, ConfigError, IoError, InvalidGenerator
from fvariety.estimation import _count_varieties, _sample_tables
from fvariety.experiments import (
    CSV_HEADER,
    DEFAULT_RATIOS,
    DEFAULT_SAMPLE_SIZES,
)

# Bounds of the distribution tests, fixed before they were first run: a
# two-sample KS test of trial values must not reject at KS_ALPHA, and each
# cell's mean count lies within MEAN_SE standard errors of its expectation,
# plus one count over all trials for cells too rare for the normal law.
KS_ALPHA = 1e-4
MEAN_SE = 5

THREE_CHOICES = PopulationModel(
    n_choices=3,
    expert_choice_weights=(0.2, 0.5, 0.3),
    expert_prediction=(BetaParams(2, 5), BetaParams(5, 2), BetaParams(3, 3)),
    nonexpert_prediction=BetaParams(2, 2),
    nonexpert_ratio=0.4,
)

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

    def test_empty_ratios(self):
        with pytest.raises(ConfigError, match="ratios list is empty"):
            SweepConfig(model=get_preset("uniform-1"), ratios=())

    def test_ratio_out_of_range(self):
        with pytest.raises(ConfigError):
            SweepConfig(model=get_preset("uniform-1"), ratios=(0.0, 1.2))

    def test_bad_sample_size(self):
        with pytest.raises(ConfigError):
            SweepConfig(model=get_preset("uniform-1"), sample_sizes=(0,))

    def test_too_few_trials_for_std(self):
        with pytest.raises(ConfigError):
            SweepConfig(model=get_preset("uniform-1"), trials_per_point=1)

    @pytest.mark.parametrize("sizes", [(100.5,), (True,), (50, 100.0)])
    def test_sample_sizes_must_be_integers(self, sizes):
        # numpy's multinomial draws int(100.5) = 100, and the row said 100.5
        with pytest.raises(BadShape, match="sample size must be an integer"):
            SweepConfig(model=get_preset("uniform-1"), sample_sizes=sizes)

    @pytest.mark.parametrize("trials", [3.5, 4.0, True])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(BadShape, match="trials_per_point must be an integer"):
            SweepConfig(model=get_preset("uniform-1"), trials_per_point=trials)

    def test_counts_are_stored_as_python_ints(self):
        config = SweepConfig(
            model=get_preset("uniform-1"),
            sample_sizes=(np.int64(50), 100),
            trials_per_point=np.int32(3),
        )
        assert config.sample_sizes == (50, 100)
        assert [type(n) for n in config.sample_sizes] == [int, int]
        assert type(config.trials_per_point) is int

    def test_unknown_divergence(self):
        with pytest.raises(InvalidGenerator):
            SweepConfig(model=get_preset("uniform-1"), divergences=("nope",))

    def test_inline_model(self):
        config = SweepConfig(model=get_preset("uniform-2"))
        assert config.model == get_preset("uniform-2")


class TestRunSweep:
    def test_numpy_integer_seed_runs_the_int_seed_sweep(self):
        # streams hash the repr of their seed, and numpy writes np.int64(5)
        small = dict(SMALL, ratios=(0.3,), sample_sizes=(50,), trials_per_point=3)
        model = get_preset("uniform-1")
        rows = run_sweep(SweepConfig(model=model, **dict(small, base_seed=5)))
        again = run_sweep(SweepConfig(model=model, **dict(small, base_seed=np.int64(5))))
        assert again == rows

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
        assert run_sweep(config) == run_sweep(config)

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

    def test_repeated_kind_names_give_one_block_each(self):
        def sweep(*names):
            config = SweepConfig(
                model=get_preset("uniform-1"), **{**SMALL, "divergences": names}
            )
            return run_sweep(config)

        single = sweep("tvd")
        rows = sweep("tvd", "TVD", "tvd")
        assert len(rows) == 3 * len(single)
        for k in range(3):  # each block is named by kind.name, as typed or not
            assert rows[k * len(single):(k + 1) * len(single)] == single

    def test_std_columns_nonnegative(self):
        rows = run_sweep(SweepConfig(model=get_preset("non-uniform-2"), **SMALL))
        assert all(r.empirical_std >= 0.0 for r in rows)


class TestSampleTables:
    """Multinomial count tables against the public per-respondent sampler."""

    TRIALS = 2000

    @pytest.mark.parametrize("n", [20, 200])
    @pytest.mark.parametrize(
        "model",
        [get_preset("uniform-1").with_ratio(0.3), THREE_CHOICES],
        ids=["uniform-1", "three-choices"],
    )
    def test_tables_follow_the_law_of_draw_samples(self, model, n):
        mass = exact_discretized_joint(model).mass
        tables = _sample_tables(mass, n, self.TRIALS, RandomStream(21))
        root = RandomStream(22)
        oracle = np.stack([
            draw_samples(model, n, root.spawn("oracle", t)).count_table()
            for t in range(self.TRIALS)
        ])
        assert tables.shape == oracle.shape
        assert np.all(tables.sum(axis=(1, 2)) == n)
        values = _count_varieties(tables, [TVD])[0]
        assert ks_2samp(values, _count_varieties(oracle, [TVD])[0]).pvalue > KS_ALPHA
        p = mass / mass.sum()
        se = np.sqrt(n * p * (1 - p) / self.TRIALS)
        for counts in (tables, oracle):
            gap = np.abs(counts.mean(axis=0) - n * p)
            assert np.all(gap <= MEAN_SE * se + 1 / self.TRIALS)


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
