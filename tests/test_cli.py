import json
import subprocess
import sys
from pathlib import Path

import pytest

from fvariety.cli import main
from fvariety.fixtures import generate_two_group_survey

# fresh interpreters run from here, so they import this checkout's package
SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURE = SRC.parent / "fixtures" / "athletes_like"


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

    def test_unknown_kind_after_a_known_one_prints_no_value(self, joint_path, capsys):
        # every name is resolved before the first value line
        assert main(["compute", "--joint", joint_path,
                     "--divergence", "tvd,bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: unknown divergence 'bogus'")


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
        # Beta(2.041, 0.3277) is infinite at 1; refinement shrinks an end
        # panel until a Kronrod node rounds onto 1.0, where the integrand is
        # NaN (inf - inf)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "n_choices": 4,
            "expert_weights": [0.135, 0.3933, 0.0371, 0.4346],
            "expert_beta": [[4.773, 9.282], [2.041, 0.3277], [5.246, 7.189], [9.899, 6.451]],
            "nonexpert_beta": [1.828, 6.027],
            "nonexpert_ratio": 0.3476,
        }))
        code = main(["theoretical", "--model", str(model_path),
                     "--divergence", "tvd,kl,pearson,hellinger"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "nan" not in captured.out

    def test_barely_overlapping_experts(self, tmp_path, capsys):
        # where one choice's density underflows, q/p overflows; those terms
        # take their p -> 0 limit, and the two choices' predictions are
        # disjoint up to ~1e-16 of mass
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "n_choices": 2,
            "expert_weights": [0.5, 0.5],
            "expert_beta": [[5, 200], [200, 5]],
            "nonexpert_beta": [2, 2],
            "nonexpert_ratio": 0.0,
        }))
        assert main(["theoretical", "--model", str(model_path),
                     "--divergence", "tvd,kl,pearson,hellinger"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        expected = {"tvd": "0.5", "kl": "0.69314718056", "pearson": "1",
                    "hellinger": "0.292893218813"}
        assert captured.out.splitlines() == [
            f"{kind} {view} {value}"
            for kind, value in expected.items()
            for view in ("continuous", "discretized")
        ]


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
        # the two choices' predictions never share a bin (a shared bin has
        # mass ~1e-16), so every table's kl variety is ln 2; tables differ,
        # and so do the rounding paths, leaving values a few ulps apart.
        # That round-off must not be written as a std of ~1e-16
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "n_choices": 2,
            "expert_weights": [0.5, 0.5],
            "expert_beta": [[1, 60], [60, 1]],
            "nonexpert_beta": [2, 2],
            "nonexpert_ratio": 0.0,
        }))
        out = tmp_path / "sweep.csv"
        assert main(["simulate", "--model", str(model_path), "--divergence", "kl",
                     "--trials", "50", "--sizes", "10,20", "--ratios", "0",
                     "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            kind, ratio, n, mean, std = line.split(",")[:5]
            assert (kind, ratio, mean, std) == ("kl", "0", "0.693147", "0")

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

    @pytest.mark.parametrize("fmt, header", [
        ("csv", "question_id,metric,respondents_a,respondents_b,variety_a,variety_b,"
                "baseline_a,baseline_b,resampled_side,resampled_mean,resampled_std,"
                "trials,subsample_size"),
        ("table", "question      metric             group A         group B   base A   base B"),
    ], ids=["csv", "table"])
    def test_header_only_responses_keep_the_two_group_header(
        self, tmp_path, capsys, fmt, header
    ):
        responses = tmp_path / "responses.csv"
        respondents = tmp_path / "respondents.csv"
        responses.write_text("respondent_id,question_id,choice,prediction_pct\n")
        respondents.write_text("respondent_id,watches\nr1,yes\nr2,no\n")
        assert main(["analyze", "--responses", str(responses),
                     "--respondents", str(respondents), "--filter", "watches=yes",
                     "--filter-b", "watches=no", "--format", fmt]) == 0
        assert capsys.readouterr().out == header + "\n"

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

    def test_out_into_a_missing_directory_exits_3(self, survey_paths, tmp_path, capsys):
        responses, respondents = survey_paths
        out = tmp_path / "missing" / "report.csv"
        assert main([
            "analyze", "--responses", responses, "--respondents", respondents,
            "--out", str(out),
        ]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("command", ["compute", "theoretical", "simulate", "analyze"])
class TestDivergenceList:
    def run(self, command, divergence, joint_path, tmp_path, capsys):
        """(exit code, printed or written output, stderr) of one run."""
        out = tmp_path / "sweep.csv"
        argv = {
            "compute": ["compute", "--joint", joint_path],
            "theoretical": ["theoretical", "--preset", "uniform-1"],
            "simulate": ["simulate", "--preset", "uniform-1", "--trials", "4",
                         "--ratios", "0,1", "--sizes", "50", "--out", str(out)],
            "analyze": ["analyze", "--responses", str(FIXTURE / "responses.csv"),
                        "--respondents", str(FIXTURE / "respondents.csv"),
                        "--questions", "Q1,Q2", "--format", "csv"],
        }[command]
        code = main(argv + ["--divergence", divergence])
        captured = capsys.readouterr()
        written = out.read_text() if out.exists() else ""
        out.unlink(missing_ok=True)
        return code, captured.out + written, captured.err

    @pytest.mark.parametrize("spelled", ["tvd,", ",tvd", " tvd , ,"])
    def test_empty_entries_are_skipped(self, command, spelled, joint_path, tmp_path, capsys):
        plain = self.run(command, "tvd", joint_path, tmp_path, capsys)
        assert plain[0] == 0 and plain[1]
        assert self.run(command, spelled, joint_path, tmp_path, capsys) == plain

    def test_kinds_are_named_in_lower_case(self, command, joint_path, tmp_path, capsys):
        # simulate used to write each kind as it was typed
        lower = self.run(command, "tvd,kl", joint_path, tmp_path, capsys)
        assert lower[0] == 0 and lower[1]
        assert self.run(command, "TVD,Kl", joint_path, tmp_path, capsys) == lower

    @pytest.mark.parametrize("empty", [",", "", " , "])
    def test_a_list_without_kinds_exits_2(self, command, empty, joint_path, tmp_path, capsys):
        code, output, err = self.run(command, empty, joint_path, tmp_path, capsys)
        assert (code, output) == (2, "")
        assert err == f"error: --divergence names no kind, got {empty!r}\n"


@pytest.mark.parametrize("empty", [",", "", " , "])
@pytest.mark.parametrize("option, noun", [
    ("--ratios", "ratio"), ("--sizes", "size"), ("--questions", "question"),
])
def test_every_empty_comma_list_exits_2(option, noun, empty, survey_paths, tmp_path, capsys):
    # an empty --questions list used to score no question and exit 0
    responses, respondents = survey_paths
    out = tmp_path / "out.csv"
    if option == "--questions":
        argv = ["analyze", "--responses", responses, "--respondents", respondents]
    else:
        argv = ["simulate", "--preset", "uniform-1", "--out", str(out)]
    assert main(argv + [option, empty]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: {option} names no {noun}, got {empty!r}\n"


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "fvariety.cli", "--help"],
        capture_output=True, text=True, cwd=SRC,
    )
    assert proc.returncode == 0
    for command in ("compute", "theoretical", "simulate", "analyze"):
        assert command in proc.stdout


def test_no_command_imports_a_process_pool(tmp_path):
    # a sweep runs in one process whatever --jobs says
    fixture = SRC.parent / "fixtures" / "athletes_like"
    script = f"""
import sys
from fvariety.cli import main
for jobs in ("1", "2"):
    assert main(["simulate", "--preset", "uniform-1", "--divergence", "tvd",
                 "--trials", "2", "--ratios", "0,0.5", "--sizes", "20,40",
                 "--jobs", jobs, "--out", {str(tmp_path / "sweep.csv")!r}]) == 0
assert main(["analyze", "--responses", {str(fixture / "responses.csv")!r},
             "--respondents", {str(fixture / "respondents.csv")!r},
             "--filter", "watches_sports=often",
             "--filter-b", "watches_sports in often|rarely", "--trials", "20",
             "--format", "csv", "--out", {str(tmp_path / "report.csv")!r}]) == 0
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("multiprocessing", "concurrent")))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=SRC
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_imports_neither_scipy_nor_mpmath(tmp_path):
    # both are test-only: the oracles import them, the library must not
    script = f"""
import sys
from fvariety.cli import main
assert main(["theoretical", "--preset", "uniform-1",
             "--divergence", "tvd,kl,pearson,hellinger"]) == 0
assert main(["simulate", "--preset", "uniform-1", "--divergence", "tvd,kl",
             "--trials", "2", "--ratios", "0,0.5", "--sizes", "20",
             "--out", {str(tmp_path / "sweep.csv")!r}]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath")))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=SRC
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
