"""Malformed files and arguments end in exit 2 or 3 with an ``error:`` line.

Each regression test replays one input that used to end in a raw
traceback; the Hypothesis tests feed the CLI arbitrary bytes, mutated
survey rows and arbitrary JSON values, and require exit 0, 2 or 3 with
no exception escaping ``main``.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fvariety.cli import main
from fvariety.fixtures import generate_two_group_survey
from fvariety.survey import RESPONSES_HEADER

MODEL = {
    "n_choices": 2,
    "expert_weights": [0.5, 0.5],
    "expert_beta": [[8, 3], [4, 5]],
    "nonexpert_beta": [2, 2],
    "nonexpert_ratio": 0.3,
}
JOINT = {"n_choices": 2, "n_bins": 2, "mass": [[0.5, 0.0], [0.0, 0.5]]}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)


def run(argv):
    """Exit code and stderr of ``main(argv)``; stdout is discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(argv):
    code, err = run(argv)
    assert code in (0, 2, 3), (code, err)
    if code != 0:
        assert err.startswith("error:"), err
    assert "Traceback" not in err


def assert_exit_2(argv):
    code, err = run(argv)
    assert code == 2, (code, err)
    assert err.startswith("error:"), err
    return err


@pytest.fixture(scope="module")
def survey(tmp_path_factory):
    """A 2-question, 2 x 6-respondent survey: (responses lines, respondents path)."""
    root = tmp_path_factory.mktemp("survey")
    fixture = generate_two_group_survey(
        str(root), seed=3, n_per_group=6, n_questions=2
    )
    lines = Path(fixture.responses_path).read_text().splitlines()
    return lines, fixture.respondents_path


def write(path, payload):
    Path(path).write_bytes(payload if isinstance(payload, bytes) else payload.encode())
    return str(path)


class TestRegressions:
    def test_non_utf8_choice_label_names_its_line(self, survey, tmp_path):
        lines, respondents = survey
        data = "\n".join(lines).encode().split(b"\n")
        data[3] = data[3].replace(b",A,", b",A\xff\xfe,").replace(b",B,", b",B\xff\xfe,")
        responses = write(tmp_path / "r.csv", b"\n".join(data) + b"\n")
        err = assert_exit_2(["analyze", "--responses", responses,
                             "--respondents", respondents])
        assert f"{responses}:4:" in err

    def test_csv_reader_error_names_its_line(self, survey, tmp_path):
        lines, respondents = survey
        too_long = lines[:2] + ["E0002,Q1,A" + "x" * 200_000 + ",30"]
        responses = write(tmp_path / "r.csv", "\n".join(too_long) + "\n")
        err = assert_exit_2(["analyze", "--responses", responses,
                             "--respondents", respondents])
        assert f"{responses}:3: field larger than field limit" in err

    @pytest.mark.parametrize("command, option", [
        ("compute", "--joint"), ("theoretical", "--model"),
    ])
    def test_non_utf8_json_file(self, tmp_path, command, option):
        path = write(tmp_path / "x.json", b'{"n_choices": 2\xff}')
        assert "not valid UTF-8" in assert_exit_2([command, option, path])

    @pytest.mark.parametrize("command, option", [
        ("compute", "--joint"), ("theoretical", "--model"),
    ])
    def test_invalid_json_file(self, tmp_path, command, option):
        path = write(tmp_path / "x.json", '{"n_choices": 2,}')
        err = assert_exit_2([command, option, path])
        assert err.startswith(f"error: {path} is not valid JSON: ")

    @pytest.mark.parametrize("model", [
        {"n_choices": 2},
        [MODEL],
        {**MODEL, "expert_beta": [[1], [2, 3]]},
        {**MODEL, "nonexpert_ratio": "abc"},
        {**MODEL, "expert_weights": [float("nan"), 0.5]},
        {**MODEL, "n_choices": 2.7},
        {**MODEL, "n_choices": 2.0},
        {**MODEL, "n_choices": "2"},
        {**MODEL, "n_choices": True},
        {**MODEL, "nonexpert_beta": [2, 2, 5]},
        {"n_choices": 2, "expert_weights": [True, False], "expert_beta": ["83", [4, 5]],
         "nonexpert_beta": "22", "nonexpert_ratio": "0.3"},
        {**MODEL, "expert_weights": [True, False]},
        {**MODEL, "expert_beta": ["83", [4, 5]]},
        {**MODEL, "nonexpert_beta": "22"},
        {**MODEL, "nonexpert_ratio": "0.3"},
    ])
    def test_malformed_model_json(self, tmp_path, model):
        path = write(tmp_path / "m.json", json.dumps(model))
        assert_exit_2(["theoretical", "--model", path])

    def test_model_validation_messages_are_kept(self, tmp_path):
        path = write(tmp_path / "m.json", json.dumps({**MODEL, "nonexpert_ratio": 2}))
        err = assert_exit_2(["theoretical", "--model", path])
        assert err == "error: nonexpert_ratio must lie in [0, 1], got 2.0\n"

    @pytest.mark.parametrize("joint", [
        {**JOINT, "n_choices": "x"},
        {**JOINT, "mass": [[0.5, "a"], [0.0, 0.5]]},
        {**JOINT, "mass": [[0.5, float("nan")], [0.0, 0.5]]},
        {**JOINT, "n_choices": 2.9},
        {**JOINT, "n_bins": 2.0},
        {**JOINT, "n_bins": "2"},
        {**JOINT, "n_bins": True, "mass": [[0.5], [0.5]]},
        {**JOINT, "mass": [["0.5", "0"], [False, "0.5"]]},
        {**JOINT, "mass": [[0.5, 0.0], [False, 0.5]]},
        {**JOINT, "mass": [[0.5, 0.0], [0.0, "0.5"]]},
    ])
    def test_malformed_joint_json(self, tmp_path, joint):
        path = write(tmp_path / "j.json", json.dumps(joint))
        assert_exit_2(["compute", "--joint", path])

    @pytest.mark.parametrize("option, value", [("--ratios", "a"), ("--sizes", "1.5")])
    def test_unparsable_grid_option_is_named(self, tmp_path, option, value):
        err = assert_exit_2(["simulate", "--preset", "uniform-1", option, value,
                             "--out", str(tmp_path / "x.csv")])
        assert option in err

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_non_positive_jobs(self, tmp_path, jobs):
        out = tmp_path / "x.csv"
        err = assert_exit_2(["simulate", "--preset", "uniform-1", "--ratios", "0.5",
                             "--sizes", "20", "--trials", "2", f"--jobs={jobs}",
                             "--out", str(out)])
        assert err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_negative_seed(self, survey, tmp_path, command):
        if command == "simulate":
            argv = ["simulate", "--preset", "uniform-1", "--ratios", "0.5",
                    "--sizes", "10", "--trials", "2", "--out", str(tmp_path / "x.csv")]
        else:
            # unequal groups, so the comparison draws subsamples
            lines, respondents = survey
            responses = write(tmp_path / "r.csv", "\n".join(lines[:-1]) + "\n")
            argv = ["analyze", "--responses", responses, "--respondents", respondents,
                    "--filter", "watches_sports=often",
                    "--filter-b", "watches_sports=rarely", "--trials", "5"]
        err = assert_exit_2(argv + ["--seed", "-1"])
        assert "seed" in err and "-1" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
    def test_non_finite_tolerance(self, tol):
        err = assert_exit_2(["theoretical", "--preset", "uniform-1", f"--tol={tol}"])
        assert "tol must be" in err

    def test_huge_beta_shapes_fail_without_a_warning(self, tmp_path):
        # tier-1 turns any RuntimeWarning into an exception, so a warning
        # from the continued fraction would escape main as a traceback
        model = {**MODEL, "nonexpert_beta": [1e300, 1e300]}
        path = write(tmp_path / "m.json", json.dumps(model))
        err = assert_exit_2(["theoretical", "--model", path])
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["theoretical", "simulate"])
    @pytest.mark.parametrize("field, pair", [
        ("expert_beta", [[1e306, 1e306], [2, 3]]),
        ("nonexpert_beta", [1e306, 1e306]),
    ])
    def test_shapes_whose_log_beta_overflows_exit_2(self, tmp_path, command, field, pair):
        # lgamma(1e306) overflows a float; it used to escape as OverflowError
        path = write(tmp_path / "m.json", json.dumps({**MODEL, field: pair}))
        argv = [command, "--model", path]
        if command == "simulate":
            argv += ["--ratios", "0.3", "--sizes", "20", "--trials", "2",
                     "--out", str(tmp_path / "sweep.csv")]
        err = assert_exit_2(argv)
        assert "overflows" in err
        assert len(err.splitlines()) == 1

    def test_overflowing_density_fails_without_a_warning(self, tmp_path):
        # Beta(0.0186, 2)'s density overflows at the nodes of a panel next
        # to 0; the overflow warning used to print before the error line
        model = {**MODEL, "expert_beta": [[0.0186, 2], [2, 2]]}
        path = write(tmp_path / "m.json", json.dumps(model))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = run(["theoretical", "--model", path,
                             "--divergence", "tvd,kl,pearson,hellinger"])
        assert code == 2
        assert err.startswith("error: kl: integrand is not finite")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["theoretical", "simulate"])
    def test_continuous_value_below_the_discretized_is_refused(self, tmp_path, capsys,
                                                              command):
        # Beta(1e-300, 2) holds nearly all its mass below any quadrature
        # node: quadrature read tvd 0.175 against a discretized 0.347
        model = {**MODEL, "expert_beta": [[1e-300, 2], [2, 2]]}
        path = write(tmp_path / "m.json", json.dumps(model))
        out = tmp_path / "sweep.csv"
        argv = [command, "--model", path, "--divergence", "tvd,kl"]
        if command == "simulate":
            argv += ["--ratios", "0.3", "--sizes", "20", "--trials", "2",
                     "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: tvd: continuous value 0.175 is below ")
        assert len(captured.err.splitlines()) == 1

    def test_first_respondents_column_must_be_respondent_id(self, survey, tmp_path):
        lines, _ = survey
        respondents = write(tmp_path / "p.csv", "id,watches_sports\nE0001,often\n")
        responses = write(tmp_path / "r.csv", "\n".join(lines) + "\n")
        err = assert_exit_2(["analyze", "--responses", responses,
                             "--respondents", respondents])
        assert err == (f"error: {respondents}: first column must be respondent_id, "
                       f"got ['id', 'watches_sports']\n")

    def test_in_clause_without_values(self, survey, tmp_path):
        lines, respondents = survey
        responses = write(tmp_path / "r.csv", "\n".join(lines) + "\n")
        err = assert_exit_2(["analyze", "--responses", responses,
                             "--respondents", respondents,
                             "--filter", "watches_sports in |"])
        assert err == "error: filter clause 'watches_sports in |' lists no values\n"

    def test_comparison_needs_a_trial(self, survey, tmp_path):
        lines, respondents = survey
        responses = write(tmp_path / "r.csv", "\n".join(lines) + "\n")
        err = assert_exit_2(["analyze", "--responses", responses,
                             "--respondents", respondents,
                             "--filter", "watches_sports=often",
                             "--filter-b", "watches_sports=rarely", "--trials", "0"])
        assert err == "error: trials must be >= 1, got 0\n"

    def test_single_label_question_is_named(self, survey, tmp_path):
        _, respondents = survey
        responses = write(
            tmp_path / "r.csv",
            ",".join(RESPONSES_HEADER) + "\nE0001,Q7,A,30\nE0002,Q7,A,40\n",
        )
        err = assert_exit_2(["analyze", "--responses", responses,
                             "--respondents", respondents])
        assert "'Q7'" in err and "'A'" in err

    def test_repeated_attribute_column_is_named(self, survey, tmp_path):
        # the second "watch" column used to replace the first, so the
        # filter below selected respondents by the wrong column, exit 0
        lines, _ = survey
        respondents = write(
            tmp_path / "p.csv",
            "respondent_id,watch,watch\n" + "".join(
                f"{rid},often,rarely\n" for rid in sorted({ln.split(",")[0]
                                                          for ln in lines[1:]})
            ),
        )
        responses = write(tmp_path / "r.csv", "\n".join(lines) + "\n")
        err = assert_exit_2(["analyze", "--responses", responses,
                             "--respondents", respondents, "--filter", "watch=often"])
        assert "'watch'" in err and "header" in err

    @pytest.mark.parametrize("row, fault", [
        ("E0001,Q3,,50", "empty choice"),
        ("E0001, ,A,50", "empty question_id"),
    ])
    def test_empty_answer_field_names_its_line(self, survey, tmp_path, row, fault):
        # an empty label used to become an option of its own, and an empty
        # question id a question named ''
        lines, respondents = survey
        responses = write(tmp_path / "r.csv", "\n".join(lines[:3] + [row]) + "\n")
        err = assert_exit_2(["analyze", "--responses", responses,
                             "--respondents", respondents])
        assert err == f"error: {responses}:4: {fault}\n"

    def test_empty_respondent_id_names_its_line(self, survey, tmp_path):
        lines, _ = survey
        respondents = write(tmp_path / "p.csv",
                            "respondent_id,watches_sports\nE0001,often\n  ,often\n")
        responses = write(tmp_path / "r.csv", "\n".join(lines[:2]) + "\n")
        err = assert_exit_2(["analyze", "--responses", responses,
                             "--respondents", respondents])
        assert err == f"error: {respondents}:3: empty respondent_id\n"


FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@FUZZ
@given(payload=st.binary(max_size=200), with_header=st.booleans())
def test_analyze_survives_arbitrary_bytes(survey, payload, with_header):
    _, respondents = survey
    if with_header:
        payload = (",".join(RESPONSES_HEADER) + "\n").encode() + payload
    with tempfile.TemporaryDirectory() as tmp:
        responses = write(Path(tmp) / "r.csv", payload)
        assert_clean_exit(["analyze", "--responses", responses,
                           "--respondents", respondents, "--trials", "3"])


@FUZZ
@given(
    row=st.integers(1, 24),
    field=st.integers(0, 3),
    value=st.text(max_size=6),
    two_groups=st.booleans(),
)
def test_analyze_survives_one_mutated_field(survey, row, field, value, two_groups):
    lines, respondents = survey
    fields = lines[row].split(",")
    fields[field] = value
    mutated = lines[:row] + [",".join(fields)] + lines[row + 1:]
    argv = ["analyze", "--respondents", respondents, "--trials", "3"]
    if two_groups:
        argv += ["--filter", "watches_sports=often", "--filter-b", "watches_sports=rarely"]
    with tempfile.TemporaryDirectory() as tmp:
        responses = write(Path(tmp) / "r.csv", "\n".join(mutated) + "\n")
        assert_clean_exit(argv + ["--responses", responses])


def _json_inputs(valid):
    """Arbitrary JSON values, and ``valid`` with one field replaced by one."""
    return json_values | st.builds(
        lambda key, value: {**valid, key: value}, st.sampled_from(sorted(valid)),
        json_values,
    )


@FUZZ
@given(obj=_json_inputs(JOINT))
def test_compute_survives_arbitrary_json(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp) / "j.json", json.dumps(obj))
        assert_clean_exit(["compute", "--joint", path, "--divergence", "tvd,kl"])


@FUZZ
@given(obj=_json_inputs(MODEL))
def test_theoretical_survives_arbitrary_json(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp) / "m.json", json.dumps(obj))
        assert_clean_exit(["theoretical", "--model", path, "--divergence", "tvd,kl"])
