"""Count tables and the stacked variety kernel against the tuple-era code.

The reference functions below restate the per-observation implementation
that preceded count tables.  The variety kernel must reproduce its
arithmetic bit for bit; subsample count tables, drawn whole rather than
answer by answer, must follow the same law as its picks.
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.stats import ks_2samp

from fvariety import (
    BUILTIN_KINDS,
    TVD,
    JointDistribution,
    RandomStream,
    RespondentFilter,
    analyze,
    compare_groups_equalized,
    empirical_joint,
    load_survey,
    uninformative_projection,
)
from fvariety import divergence, estimation
from fvariety.cli import main as cli_main
from fvariety.divergence import _variety_stack, f_variety, pointwise_contributions
from fvariety.errors import BadShape
from fvariety.estimation import _count_varieties, _subsample_tables

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "athletes_like"
KINDS = sorted(BUILTIN_KINDS)

# Bounds of the distribution tests, fixed before they were first run: a
# two-sample KS test of trial values must not reject at KS_ALPHA, and each
# cell's mean count lies within MEAN_SE standard errors of its expectation,
# plus one count over all trials for cells too rare for the normal law.
KS_ALPHA = 1e-4
MEAN_SE = 5


def reference_f_variety(dist: JointDistribution, kind) -> float:
    projected = uninformative_projection(dist)
    return float(
        pointwise_contributions(dist.mass.ravel(), projected.mass.ravel(), [kind])[0].sum()
    )


def reference_subsampled_values(sample, size, kind, trials, stream):
    """``np.add.at`` over the picked observations, one table at a time."""
    n_choices, choices, bins = sample
    values = np.empty(trials)
    for t in range(trials):
        rng = stream.spawn("subsample-trial", t).generator
        idx = rng.choice(len(choices), size=size, replace=False)
        counts = np.zeros((n_choices, 11))
        np.add.at(counts, (choices[idx], bins[idx]), 1.0)
        dist = JointDistribution(
            n_choices=n_choices, n_bins=11, mass=counts / counts.sum()
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


def analyze_compare_payload(tmp_path) -> str:
    """Two-group ``analyze --format json`` reports for every kind, both orders.

    JSON keeps floats at full precision, so a last-ulp change in a
    subsample mean or std shows up here but not in the 6-digit CSV golden.
    """
    groups = ("watches_sports=often", "watches_sports in often|rarely")
    runs = []
    for kind_name in KINDS:
        for filter_a, filter_b in (groups, groups[::-1]):
            out = tmp_path / f"{kind_name}-{len(runs)}.json"
            assert cli_main([
                "analyze",
                "--responses", str(FIXTURE / "responses.csv"),
                "--respondents", str(FIXTURE / "respondents.csv"),
                "--filter", filter_a, "--filter-b", filter_b,
                "--divergence", kind_name, "--trials", "1000",
                "--format", "json", "--out", str(out),
            ]) == 0
            runs.append({
                "divergence": kind_name, "filter": filter_a, "filter_b": filter_b,
                "report": json.loads(out.read_text()),
            })
    return json.dumps(runs, indent=2) + "\n"


def test_analyze_json_comparison_matches_golden(tmp_path):
    golden = (GOLDEN / "analyze_compare_4kinds.json").read_text()
    assert analyze_compare_payload(tmp_path) == golden


# (filter, filter_b) of the format goldens: one group; a larger group B
# (B carries the error bar); a larger group A (A carries it)
FORMAT_CASES = {
    "single": ("watches_sports=often", None),
    "side-b": ("watches_sports=often", "watches_sports in often|rarely"),
    "side-a": ("watches_sports in often|rarely", "watches_sports=rarely"),
}


def analyze_formats_payload(tmp_path) -> str:
    """``analyze`` output text in every format, by case and kind, as JSON."""
    outputs = {}
    for case, (filter_a, filter_b) in FORMAT_CASES.items():
        for kind_name in ("tvd", "kl"):
            for fmt in ("table", "csv", "json"):
                out = tmp_path / f"{case}-{kind_name}.{fmt}"
                argv = [
                    "analyze",
                    "--responses", str(FIXTURE / "responses.csv"),
                    "--respondents", str(FIXTURE / "respondents.csv"),
                    "--filter", filter_a,
                    "--divergence", kind_name, "--trials", "1000",
                    "--format", fmt, "--out", str(out),
                ]
                if filter_b is not None:
                    argv += ["--filter-b", filter_b]
                assert cli_main(argv) == 0
                outputs[f"{case}/{kind_name}/{fmt}"] = out.read_text()
    return json.dumps(outputs, indent=2) + "\n"


def test_analyze_formats_match_golden(tmp_path):
    golden = (GOLDEN / "analyze_formats_tvd_kl.json").read_text()
    assert analyze_formats_payload(tmp_path) == golden


def test_two_group_comparison_ignores_row_order(tmp_path):
    # a comparison reads only each group's count table, so the order of
    # the rows in responses.csv cannot move a subsample statistic
    header, *rows = (FIXTURE / "responses.csv").read_text().splitlines()
    shuffled = list(rows)
    np.random.default_rng(8).shuffle(shuffled)
    assert shuffled != rows
    reordered = tmp_path / "responses.csv"
    reordered.write_text("\n".join([header, *shuffled]) + "\n")
    reports = []
    for responses in (FIXTURE / "responses.csv", reordered):
        out = tmp_path / f"report-{len(reports)}.csv"
        assert cli_main([
            "analyze",
            "--responses", str(responses),
            "--respondents", str(FIXTURE / "respondents.csv"),
            "--questions", "Q1,Q2,Q3,Q4,Q5,Q6,Q7",
            "--filter", "watches_sports=often",
            "--filter-b", "watches_sports in often|rarely",
            "--trials", "200", "--format", "csv", "--out", str(out),
        ]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


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


def fixture_analyze(filters, trials, names=KINDS):
    """In-process ``analyze`` of every fixture question under ``filters``,
    every kind in ``names``."""
    dataset = load_survey(str(FIXTURE / "responses.csv"), str(FIXTURE / "respondents.csv"))
    question_ids = [q.question_id for q in dataset.questions]
    assert len(question_ids) == 7
    parsed = [RespondentFilter.parse(f) for f in filters if f is not None]
    kinds = [BUILTIN_KINDS[name] for name in names]
    return analyze(dataset, question_ids, *parsed, kinds=kinds, trials=trials)


@pytest.mark.parametrize("case", FORMAT_CASES)
def test_kind_list_prints_the_one_kind_runs_back_to_back(tmp_path, case):
    # rows are kind-major, and each question's stream does not depend on
    # the kinds, so a kind list gives the one-kind runs' rows, in kind
    # order, under one header
    filter_a, filter_b = FORMAT_CASES[case]

    def run(divergence_list, fmt):
        out = tmp_path / f"{divergence_list}.{fmt}"
        argv = [
            "analyze",
            "--responses", str(FIXTURE / "responses.csv"),
            "--respondents", str(FIXTURE / "respondents.csv"),
            "--filter", filter_a, "--divergence", divergence_list,
            "--trials", "200", "--format", fmt, "--out", str(out),
        ]
        if filter_b is not None:
            argv += ["--filter-b", filter_b]
        assert cli_main(argv) == 0
        return out.read_text()

    for fmt in ("table", "csv", "json"):
        together = run(",".join(KINDS), fmt)
        alone = [run(name, fmt) for name in KINDS]
        if fmt == "json":
            records = [q for text in alone for q in json.loads(text)["questions"]]
            assert json.loads(together) == {"questions": records}
            continue

        def lines(text):
            # a table widens its metric column to the longest kind: compare cells
            return [line.split() if fmt == "table" else line for line in text.splitlines()]

        header, *rows = lines(together)
        assert len(rows) == 7 * len(KINDS)
        assert header == lines(alone[0])[0]
        assert rows == [row for text in alone for row in lines(text)[1:]]


def test_kind_list_draws_each_question_once(monkeypatch):
    draws = []

    def counted(*args):
        draws.append(args)
        return original(*args)

    original = estimation._subsample_tables
    monkeypatch.setattr(estimation, "_subsample_tables", counted)
    report = fixture_analyze(FORMAT_CASES["side-b"], trials=50)
    assert len(report.rows) == 7 * len(KINDS)
    assert len(draws) == 7


@pytest.mark.parametrize("case", FORMAT_CASES)
def test_each_table_is_scored_once_per_kind(monkeypatch, case):
    # per question and kind: every group's full table once, then, for two
    # groups, the subsample stack
    scored = Counter()

    def counted(mass, kinds):
        for kind in kinds:
            scored[kind.name] += int(np.prod(mass.shape[:-2]))
        return original(mass, kinds)

    original = divergence._variety_stack
    for module in (divergence, estimation):
        monkeypatch.setattr(module, "_variety_stack", counted)
    trials = 50
    fixture_analyze(FORMAT_CASES[case], trials)
    groups = 1 if FORMAT_CASES[case][1] is None else 2
    per_question = groups + (trials if groups == 2 else 0)
    assert scored == {name: 7 * per_question for name in KINDS}


@pytest.mark.parametrize("case", FORMAT_CASES)
def test_kernel_calls_do_not_grow_with_the_kinds(monkeypatch, case):
    calls = []

    def counted(mass, kinds):
        calls.append(len(kinds))
        return original(mass, kinds)

    original = divergence._variety_stack
    monkeypatch.setattr(estimation, "_variety_stack", counted)
    fixture_analyze(FORMAT_CASES[case], 50, ["tvd"])
    one_kind = len(calls)
    calls.clear()
    fixture_analyze(FORMAT_CASES[case], 50)
    assert calls == [len(KINDS)] * one_kind


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
    values = _count_varieties(counts, [kind])[0]
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
    values = _variety_stack(np.stack([d.mass for d in dists]), [kind])[0]
    for value, dist in zip(values, dists):
        assert value == reference_f_variety(dist, kind)


def answers(n_choices, unchosen_option, seed):
    """(n_choices, choices, bins) of 120 answers; with ``unchosen_option``
    nobody picks the last choice."""
    rng = np.random.default_rng(seed)
    return (
        n_choices,
        rng.integers(0, n_choices - unchosen_option, size=120),
        rng.integers(0, 11, size=120),
    )


def count_table(sample):
    """The (n_choices, 11) count table of ``answers``' output, by ``np.add.at``."""
    n_choices, choices, bins = sample
    table = np.zeros((n_choices, 11), dtype=np.intp)
    np.add.at(table, (choices, bins), 1)
    return table


@pytest.mark.parametrize("kind_name", KINDS)
@pytest.mark.parametrize("unchosen_option", [True, False])
def test_unit_matrix_subsampling_matches_add_at_reference(kind_name, unchosen_option):
    # subsample values follow the law of the np.add.at oracle's.  An
    # unchosen option is a filtered group that never picked the last
    # label: that choice row of every table, full-size ones too, is empty
    kind = BUILTIN_KINDS[kind_name]
    samples = answers(3, unchosen_option, 404)
    table = count_table(samples)
    for size in (17, 60):
        got = _count_varieties(
            _subsample_tables(table, size, 1000, RandomStream(9)), [kind]
        )[0]
        want = reference_subsampled_values(samples, size, kind, 1000, RandomStream(10))
        assert ks_2samp(got, want).pvalue > KS_ALPHA
    # a full-size subsample is the group itself, in every trial
    size = int(table.sum())
    got = _count_varieties(
        _subsample_tables(table, size, 40, RandomStream(9)), [kind]
    )[0]
    want = reference_subsampled_values(samples, size, kind, 40, RandomStream(10))
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("size", [17, 60])
@pytest.mark.parametrize("n_choices", [2, 3])
def test_subsample_tables_follow_the_law_of_the_reference(n_choices, size):
    trials = 2000
    samples = answers(n_choices, False, 405)
    table = count_table(samples)
    tables = _subsample_tables(table, size, trials, RandomStream(31))
    want = reference_subsampled_values(samples, size, TVD, trials, RandomStream(32))
    assert ks_2samp(_count_varieties(tables, [TVD])[0], want).pvalue > KS_ALPHA
    # hypergeometric cell means and variances
    total = int(table.sum())
    share = table / total
    var = size * share * (1 - share) * (total - size) / (total - 1)
    gap = np.abs(tables.mean(axis=0) - size * share)
    assert np.all(gap <= MEAN_SE * np.sqrt(var / trials) + 1 / trials)


@pytest.mark.parametrize("unchosen_option", [True, False])
def test_subsample_tables_sum_to_size_within_the_group(unchosen_option):
    table = count_table(answers(3, unchosen_option, 406))
    total = int(table.sum())
    for size in (1, 17, total - 1, total):
        tables = _subsample_tables(table, size, 300, RandomStream(size))
        assert tables.shape == (300, *table.shape)
        assert np.all(tables.sum(axis=(1, 2)) == size)
        assert np.all(tables <= table)
    # the whole group gives the group's own table in every trial
    assert np.all(tables == table)


@pytest.mark.parametrize(
    "table, match",
    [
        # non-integer tables are refused, not truncated or cast
        ([[0.9, 1.7], [3.2, 10.99]], "must be integers, got dtype float64"),
        ([[0, 1], [3.2, 10.99]], "must be integers, got dtype float64"),
        ([[True], [False]], "must be integers, got dtype bool"),
        ([[False], [False]], "must be integers, got dtype bool"),
        ([[float("nan")], [1.0]], "must be integers, got dtype float64"),
        ([[0, 2], [-1, 0]], "negative cell, -1"),
        # a table is (choices, bins), with 2 choices and 1 bin at least
        ([3, 1], r"shape \(2,\)"),
        ([[3, 1]], r"shape \(1, 2\)"),
        (np.ones((2, 0), dtype=int), r"shape \(2, 0\)"),
        (np.ones((1, 2, 11), dtype=int), r"shape \(1, 2, 11\)"),
    ],
    ids=["float", "float-row", "bool", "bool-zeros", "nan", "negative", "1-d", "one-choice", "no-bins", "3-d"],
)
def test_malformed_tables_raise_bad_shape(table, match):
    with pytest.raises(BadShape, match=match):
        empirical_joint(table)
    with pytest.raises(BadShape, match=match):
        compare_groups_equalized([[1], [1]], table, TVD)
