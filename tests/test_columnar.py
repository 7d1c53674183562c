"""Columnar samples and the stacked variety kernel against the tuple-era code.

The golden files under ``tests/golden/`` were written by the per-observation
implementation that preceded ``SampleSet``'s array columns; the reference
functions below restate that implementation's arithmetic, so the columnar
path must reproduce it bit for bit.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvariety import (
    BUILTIN_KINDS,
    JointDistribution,
    RandomStream,
    RespondentFilter,
    SampleSet,
    analyze,
    load_survey,
    uninformative_projection,
)
from fvariety.cli import main as cli_main
from fvariety.divergence import _variety_stack, f_variety, pointwise_contributions
from fvariety.errors import BadShape
from fvariety.estimation import _count_varieties, _subsampled_values

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "athletes_like"
KINDS = sorted(BUILTIN_KINDS)


def reference_f_variety(dist: JointDistribution, kind) -> float:
    projected = uninformative_projection(dist)
    return float(
        pointwise_contributions(dist.mass.ravel(), projected.mass.ravel(), kind).sum()
    )


def reference_subsampled_values(samples, size, kind, trials, stream):
    """Index concatenation and ``np.add.at`` per trial, one table at a time."""
    order: dict = {}
    for i, rid in enumerate(samples.respondent_ids or range(len(samples))):
        order.setdefault(rid, []).append(i)
    units = [np.array(idx, dtype=np.intp) for idx in order.values()]
    values = np.empty(trials)
    for t in range(trials):
        rng = stream.spawn("subsample-trial", t).generator
        picked = rng.choice(len(units), size=size, replace=False)
        idx = np.concatenate([units[u] for u in picked])
        counts = np.zeros((samples.n_choices, samples.n_bins))
        np.add.at(counts, (samples.choices[idx], samples.bins[idx]), 1.0)
        dist = JointDistribution(
            n_choices=samples.n_choices, n_bins=samples.n_bins,
            mass=counts / counts.sum(),
        )
        values[t] = reference_f_variety(dist, kind)
    return values


@pytest.mark.parametrize("jobs", [1, 2])
def test_simulate_csv_matches_golden(tmp_path, jobs):
    out = tmp_path / "sweep.csv"
    assert cli_main([
        "simulate", "--preset", "uniform-1", "--divergence", "tvd,pearson,hellinger",
        "--trials", "20", "--jobs", str(jobs), "--out", str(out),
    ]) == 0
    golden = GOLDEN / "simulate_tvd_pearson_hellinger_t20.csv"
    assert out.read_bytes() == golden.read_bytes()


def test_analyze_csv_matches_golden(tmp_path):
    out = tmp_path / "analyze.csv"
    assert cli_main([
        "analyze",
        "--responses", str(FIXTURE / "responses.csv"),
        "--respondents", str(FIXTURE / "respondents.csv"),
        "--filter", "watches_sports=often",
        "--filter-b", "watches_sports in often|rarely",
        "--trials", "1000", "--format", "csv", "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (GOLDEN / "analyze_often_vs_all_t1000.csv").read_bytes()


def test_equal_size_comparison_reports_exact_zero_std():
    # 300 vs 300: every subsample is the whole group, so all 1000 trial
    # values are equal; their float mean used to leave std ~1e-17
    dataset = load_survey(
        str(FIXTURE / "responses.csv"), str(FIXTURE / "respondents.csv")
    )
    report = analyze(
        dataset, ["Q2", "Q4", "Q5", "Q6"],
        RespondentFilter.parse("watches_sports=often"),
        RespondentFilter.parse("watches_sports=rarely"),
        trials=1000, stream=RandomStream(0),
    )
    for row in report.rows:
        assert row.comparison.subsample_size == 300
        assert row.comparison.group_b_std == 0.0


@st.composite
def count_stacks(draw):
    """(trials, C, B) count stacks, sparse enough to leave zero cells."""
    n_choices = draw(st.integers(2, 5))
    n_bins = draw(st.integers(1, 11))
    trials = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.sampled_from([1, 2, 7, 100, 1000, 7919]))
    # a random subset of reachable cells per trial, so whole rows and
    # whole prediction columns can be empty
    n_cells = n_choices * n_bins
    counts = np.zeros((trials, n_cells), dtype=np.intp)
    for t in range(trials):
        n_reachable = rng.integers(1, n_cells + 1)
        reachable = rng.choice(n_cells, size=n_reachable, replace=False)
        counts[t] = np.bincount(rng.choice(reachable, size=n), minlength=n_cells)
    return counts.reshape(trials, n_choices, n_bins)


@settings(max_examples=150, deadline=None)
@given(count_stacks(), st.sampled_from(KINDS))
def test_count_stack_equals_per_table_variety(counts, kind_name):
    kind = BUILTIN_KINDS[kind_name]
    trials, n_choices, n_bins = counts.shape
    values = _count_varieties(counts, kind)
    assert values.shape == (trials,)
    for t in range(trials):
        dist = JointDistribution(
            n_choices=n_choices, n_bins=n_bins, mass=counts[t] / counts[t].sum()
        )
        assert values[t] == f_variety(dist, kind)
        assert values[t] == reference_f_variety(dist, kind)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 5), st.integers(1, 11), st.integers(1, 5),
    st.integers(0, 2**32 - 1), st.sampled_from(KINDS),
)
def test_mass_stack_equals_per_table_variety(
    n_choices, n_bins, trials, seed, kind_name
):
    kind = BUILTIN_KINDS[kind_name]
    rng = np.random.default_rng(seed)
    dists = []
    for _ in range(trials):
        mass = rng.dirichlet(np.ones(n_choices * n_bins))
        mass[rng.random(mass.size) < 0.3] = 0.0
        if mass.sum() == 0.0:
            mass[0] = 1.0
        dists.append(JointDistribution(
            n_choices=n_choices, n_bins=n_bins,
            mass=(mass / mass.sum()).reshape(n_choices, n_bins),
        ))
    values = _variety_stack(np.stack([d.mass for d in dists]), kind)
    for value, dist in zip(values, dists):
        assert value == reference_f_variety(dist, kind)


def clustered_samples(rng, n_respondents, n_choices=2, n_bins=11, named=True):
    """Respondents with 1-3 observations each, interleaved."""
    per = rng.integers(1, 4, size=n_respondents)
    ids = np.repeat(np.arange(n_respondents), per)
    rng.shuffle(ids)
    return SampleSet(
        n_choices=n_choices,
        n_bins=n_bins,
        choices=rng.integers(0, n_choices, size=len(ids)),
        bins=rng.integers(0, n_bins, size=len(ids)),
        respondent_ids=[f"r{i}" for i in ids] if named else None,
    )


@pytest.mark.parametrize("kind_name", KINDS)
@pytest.mark.parametrize("named", [True, False])
def test_unit_matrix_subsampling_matches_add_at_reference(kind_name, named):
    kind = BUILTIN_KINDS[kind_name]
    rng = np.random.default_rng(404)
    samples = clustered_samples(rng, 60, n_choices=3, named=named)
    n_units = samples.respondent_units()[1]
    for size in (1, 17, n_units):
        got = _subsampled_values(samples, size, kind, 40, RandomStream(9))
        want = reference_subsampled_values(samples, size, kind, 40, RandomStream(9))
        np.testing.assert_array_equal(got, want)


def test_respondent_units_keep_first_appearance_order():
    samples = SampleSet(
        n_choices=2, n_bins=3, choices=[0, 1, 0, 1, 1], bins=[0, 1, 2, 0, 1],
        respondent_ids=["b", "a", "b", "c", "a"],
    )
    units, n_units = samples.respondent_units()
    assert units.tolist() == [0, 1, 0, 2, 1]
    assert n_units == 3
    anonymous = SampleSet(n_choices=2, n_bins=3, choices=[1, 1], bins=[0, 0])
    units, n_units = anonymous.respondent_units()
    assert units.tolist() == [0, 1] and n_units == 2


@pytest.mark.parametrize(
    "choices, bins, match",
    [
        ([0, 2], [0, 0], "choice 2"),
        ([0, -1], [0, 0], "choice -1"),
        ([0, 1], [11, 0], "prediction bin 11"),
        ([0, 1], [0, -3], "prediction bin -3"),
        ([0, 1], [0], "2 choices but 1"),
    ],
)
def test_out_of_range_columns_raise_bad_shape(choices, bins, match):
    with pytest.raises(BadShape, match=match):
        SampleSet(n_choices=2, n_bins=11, choices=choices, bins=bins)


def test_respondent_ids_must_match_observations():
    with pytest.raises(BadShape, match="respondent ids"):
        SampleSet(n_choices=2, n_bins=11, choices=[0, 1], bins=[0, 1],
                  respondent_ids=["r1"])


def test_columns_are_read_only_copies():
    choices = np.array([0, 1, 1])
    samples = SampleSet(n_choices=2, n_bins=2, choices=choices, bins=[0, 0, 1])
    choices[0] = 1
    assert samples.choices[0] == 0
    with pytest.raises(ValueError):
        samples.bins[0] = 1
