import json
import subprocess
import sys
from pathlib import Path

import pytest

from fvariety.cli import main
from fvariety.fixtures import generate_two_group_survey


@pytest.fixture
def joint_path(tmp_path):
    path = tmp_path / "joint.json"
    path.write_text(
        json.dumps({"n_choices": 2, "n_bins": 2, "mass": [[0.5, 0.0], [0.0, 0.5]]})
    )
    return str(path)


@pytest.fixture
def survey_paths(tmp_path):
    fixture = generate_two_group_survey(
        str(tmp_path / "survey"), seed=13, n_per_group=30, n_questions=2
    )
    return fixture.responses_path, fixture.respondents_path


class TestCompute:
    def test_prints_value(self, joint_path, capsys):
        assert main(["compute", "--joint", joint_path, "--divergence", "tvd"]) == 0
        out = capsys.readouterr().out
        assert out == "tvd 0.5\n"

    def test_multiple_kinds(self, joint_path, capsys):
        assert main(["compute", "--joint", joint_path,
                     "--divergence", "tvd,pearson"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["tvd 0.5", "pearson 1"]

    def test_missing_file_exits_3(self, capsys):
        assert main(["compute", "--joint", "/no/such/file.json"]) == 3

    def test_invalid_table_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_choices": 2, "n_bins": 1, "mass": [[2.0], [1.0]]}))
        assert main(["compute", "--joint", str(bad)]) == 2

    def test_unknown_divergence_exits_2(self, joint_path, capsys):
        assert main(["compute", "--joint", joint_path, "--divergence", "js"]) == 2


class TestTheoretical:
    def test_preset(self, capsys):
        assert main(["theoretical", "--preset", "uniform-1",
                     "--divergence", "tvd"]) == 0
        out = capsys.readouterr().out
        lines = dict(
            (ln.split()[1], float(ln.split()[2])) for ln in out.splitlines()
        )
        assert lines["continuous"] == pytest.approx(0.329576, abs=1e-4)
        assert lines["discretized"] == pytest.approx(0.320030, abs=1e-4)

    def test_model_file(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "n_choices": 2,
            "expert_weights": [0.5, 0.5],
            "expert_beta": [[8, 3], [4, 5]],
            "nonexpert_beta": [2, 2],
            "nonexpert_ratio": 1.0,
        }))
        assert main(["theoretical", "--model", str(model_path)]) == 0
        out = capsys.readouterr().out
        value = float(out.splitlines()[0].split()[2])
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_unknown_preset_exits_2(self, capsys):
        assert main(["theoretical", "--preset", "uniform-9"]) == 2

    def test_nonfinite_integrand_exits_2(self, tmp_path, capsys):
        # Beta(3.69, 0.525) is infinite at 1; refinement shrinks an end panel
        # until a Kronrod node rounds onto 1.0, where kl's integrand is NaN
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "n_choices": 4,
            "expert_weights": [0.2505, 0.4223, 0.1541, 0.1731],
            "expert_beta": [[9.72, 7.99], [3.69, 0.525], [5.02, 7.71], [1.99, 6.53]],
            "nonexpert_beta": [9.84, 6.35],
            "nonexpert_ratio": 0.0926,
        }))
        code = main(["theoretical", "--model", str(model_path),
                     "--divergence", "tvd,kl,pearson,hellinger"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "nan" not in captured.out


class TestSimulate:
    ARGS = [
        "simulate", "--preset", "uniform-1", "--divergence", "tvd",
        "--seed", "9", "--trials", "4", "--ratios", "0,1",
        "--sizes", "50",
    ]

    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kind,ratio,n,mean,std,theory_cont,theory_disc"
        assert len(lines) == 3

    def test_identical_trial_values_report_exact_zero_std(self, tmp_path):
        # at n=10 and no noise both kl trials score 0.8 ln 2, a few ulps
        # apart; that round-off must not be written as a std of ~1e-16
        out = tmp_path / "sweep.csv"
        assert main(["simulate", "--preset", "uniform-1", "--divergence", "kl",
                     "--trials", "2", "--sizes", "10", "--ratios", "0,1",
                     "--out", str(out)]) == 0
        first = out.read_text().splitlines()[1].split(",")
        assert first[:3] == ["kl", "0", "10"]
        assert first[4] == "0"

    def test_json_by_extension(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 2

    def test_byte_identical_runs_and_jobs(self, tmp_path):
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        assert main(self.ARGS + ["--out", str(paths[0])]) == 0
        assert main(self.ARGS + ["--out", str(paths[1])]) == 0
        assert main(self.ARGS + ["--jobs", "2", "--out", str(paths[2])]) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_bad_ratio_exits_2(self, tmp_path, capsys):
        assert main([
            "simulate", "--preset", "uniform-1", "--ratios", "0,2",
            "--out", str(tmp_path / "x.csv"),
        ]) == 2

    def test_unwritable_out_exits_3(self, capsys):
        assert main(self.ARGS + ["--out", "/no/such/dir/x.csv"]) == 3


class TestAnalyze:
    def test_table_to_stdout(self, survey_paths, capsys):
        responses, respondents = survey_paths
        rc = main([
            "analyze", "--responses", responses, "--respondents", respondents,
            "--filter", "watches_sports=often",
            "--filter-b", "watches_sports=rarely",
            "--trials", "20", "--seed", "7",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Q1" in out and "Q2" in out and "group A" in out

    def test_csv_to_file(self, survey_paths, tmp_path, capsys):
        responses, respondents = survey_paths
        out = tmp_path / "report.csv"
        rc = main([
            "analyze", "--responses", responses, "--respondents", respondents,
            "--questions", "Q1", "--filter", "watches_sports=often",
            "--divergence", "tvd", "--format", "csv", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "question_id,metric,respondents,variety,baseline"
        assert lines[1].startswith("Q1,tvd,30,")

    def test_json_format(self, survey_paths, capsys):
        responses, respondents = survey_paths
        rc = main([
            "analyze", "--responses", responses, "--respondents", respondents,
            "--format", "json", "--trials", "10",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["questions"]) == 2

    def test_equal_size_comparison_reports_group_value(self, capsys):
        # often vs rarely is 300 vs 300: every subsample is the whole group
        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "athletes_like"
        assert main([
            "analyze",
            "--responses", str(fixture / "responses.csv"),
            "--respondents", str(fixture / "respondents.csv"),
            "--filter", "watches_sports=often",
            "--filter-b", "watches_sports=rarely",
            "--format", "json",
        ]) == 0
        for row in json.loads(capsys.readouterr().out)["questions"]:
            assert row["respondents_a"] == row["respondents_b"] == 300
            assert row["comparison"]["group_b_mean"] == row["variety_b"]
            assert row["comparison"]["group_b_std"] == 0.0

    def test_unknown_question_exits_2(self, survey_paths, capsys):
        responses, respondents = survey_paths
        assert main([
            "analyze", "--responses", responses, "--respondents", respondents,
            "--questions", "Q99",
        ]) == 2

    def test_missing_responses_exits_3(self, survey_paths, capsys):
        _, respondents = survey_paths
        assert main([
            "analyze", "--responses", "/no/such.csv", "--respondents", respondents,
        ]) == 3


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "fvariety.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for command in ("compute", "theoretical", "simulate", "analyze"):
        assert command in proc.stdout
