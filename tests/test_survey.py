import csv
import io
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvariety import (
    HELLINGER,
    RandomStream,
    RespondentFilter,
    TVD,
    analyze,
    empirical_joint,
    extract_samples,
    load_survey,
)
from fvariety.errors import (
    BadShape,
    ConfigError,
    EmptyGroup,
    EmptySampleSet,
    ParseError,
    UnknownQuestion,
    ValidationError,
)
from fvariety import survey
from fvariety.fixtures import generate_two_group_survey


def write_survey(tmp_path, responses_rows, respondents_rows,
                 respondents_header="respondent_id,watches"):
    responses = tmp_path / "responses.csv"
    respondents = tmp_path / "respondents.csv"
    responses.write_text(
        "respondent_id,question_id,choice,prediction_pct\n"
        + "".join(f"{r}\n" for r in responses_rows)
    )
    respondents.write_text(
        respondents_header + "\n" + "".join(f"{r}\n" for r in respondents_rows)
    )
    return str(responses), str(respondents)


@pytest.fixture
def tiny_survey(tmp_path):
    return write_survey(
        tmp_path,
        [
            "r1,Q1,cat,70",
            "r2,Q1,cat,60",
            "r3,Q1,dog,30",
        ],
        ["r1,yes", "r2,yes", "r3,no"],
    )


class TestLoadSurvey:
    def test_tiny_fixture(self, tiny_survey):
        dataset = load_survey(*tiny_survey)
        assert [q.question_id for q in dataset.questions] == ["Q1"]
        assert dataset.questions[0].options == ("cat", "dog")
        assert len(dataset.respondents) == 3
        samples = extract_samples(dataset, "Q1")
        assert len(samples) == 3
        assert samples.bins[0] == 7

    def test_prediction_off_grid_rejected(self, tmp_path):
        paths = write_survey(tmp_path, ["r1,Q1,cat,55"], ["r1,yes"])
        with pytest.raises(ValidationError, match="prediction_pct"):
            load_survey(*paths)

    def test_prediction_out_of_range_rejected(self, tmp_path):
        paths = write_survey(tmp_path, ["r1,Q1,cat,110"], ["r1,yes"])
        with pytest.raises(ValidationError):
            load_survey(*paths)

    def test_unknown_respondent_rejected(self, tmp_path):
        paths = write_survey(tmp_path, ["ghost,Q1,cat,50"], ["r1,yes"])
        with pytest.raises(ValidationError, match="ghost"):
            load_survey(*paths)

    def test_duplicate_answer_rejected(self, tmp_path):
        paths = write_survey(
            tmp_path, ["r1,Q1,cat,50", "r1,Q1,dog,60"], ["r1,yes"]
        )
        with pytest.raises(ValidationError, match="duplicate"):
            load_survey(*paths)

    def test_parse_error_carries_line_number(self, tmp_path):
        paths = write_survey(
            tmp_path, ["r1,Q1,cat,50", "r1,Q2,cat,not-a-number"], ["r1,yes"]
        )
        with pytest.raises(ParseError, match=":3:"):
            load_survey(*paths)

    def test_wrong_header_rejected(self, tmp_path):
        responses = tmp_path / "responses.csv"
        responses.write_text("who,what,choice,pct\nr1,Q1,cat,50\n")
        respondents = tmp_path / "respondents.csv"
        respondents.write_text("respondent_id,watches\nr1,yes\n")
        with pytest.raises(ParseError, match="header"):
            load_survey(str(responses), str(respondents))

    def test_byte_order_marks_are_skipped(self, tmp_path):
        # spreadsheet exports prefix the header with a UTF-8 BOM
        paths = write_survey(tmp_path, ["r1,Q1,cat,50", "r2,Q1,dog,20"],
                             ["r1,yes", "r2,no"])
        for path in paths:
            with open(path, "rb") as fh:
                body = fh.read()
            with open(path, "wb") as fh:
                fh.write(b"\xef\xbb\xbf" + body)
        dataset = load_survey(*paths)
        assert set(dataset.respondents) == {"r1", "r2"}
        assert dataset.attribute_names() == {"watches"}
        assert len(extract_samples(dataset, "Q1")) == 2

    def test_duplicate_respondent_rejected(self, tmp_path):
        paths = write_survey(tmp_path, ["r1,Q1,cat,50"], ["r1,yes", "r1,no"])
        with pytest.raises(ValidationError, match="duplicate respondent"):
            load_survey(*paths)

    def test_first_fault_wins_over_a_later_validation_error(self, tmp_path):
        # line 3 repeats line 2's answer; line 5 is off the 10 % grid
        paths = write_survey(
            tmp_path,
            ["r1,Q1,cat,50", "r1,Q1,dog,60", "r2,Q1,cat,40", "r2,Q2,cat,55"],
            ["r1,yes", "r2,no"],
        )
        with pytest.raises(ValidationError, match=r"responses\.csv:3: duplicate answer"):
            load_survey(*paths)

    def test_empty_fields_are_checked_after_every_other_fault(self, tmp_path):
        # a file rejected for another fault keeps that fault's line and text,
        # even when an empty label comes earlier
        rows = ["r1,Q1,,50", "r1,Q2,cat,40", "r1,Q2,dog,60"]
        paths = write_survey(tmp_path, rows, ["r1,yes"])
        with pytest.raises(ValidationError, match=r"responses\.csv:4: duplicate answer"):
            load_survey(*paths)
        paths = write_survey(tmp_path, rows[:2] + [",Q3,cat,40"], ["r1,yes"])
        with pytest.raises(ValidationError, match=r"responses\.csv:4: unknown respondent ''"):
            load_survey(*paths)
        paths = write_survey(tmp_path, rows[:2], ["r1,yes"])
        with pytest.raises(ValidationError, match=r"responses\.csv:2: empty choice"):
            load_survey(*paths)

    @pytest.mark.parametrize("file, fault, want", [
        ("responses", "r1,Q2,,40", "5: empty choice"),
        ("respondents", ",rarely", "5: empty respondent_id"),
        ("responses", "r1,Q2,cat", "5: expected 4 fields, got 3"),
        ("responses", 'r1,"Q\n2",cat', "6: expected 4 fields, got 3"),
        ("respondents", "r2,rarely,x", "5: expected 2 fields, got 3"),
    ], ids=["empty-choice", "empty-id", "ragged", "ragged-two-line", "ragged-respondent"])
    def test_fault_lines_count_blank_lines_and_quoted_newlines(
        self, tmp_path, file, fault, want
    ):
        # line 2 opens a quoted two-line field and line 4 is blank, so the
        # faulting row starts on line 5 and ends on the line it closes on
        rows = {"responses": ["r1,Q1,cat,50"], "respondents": ["r1,often"]}
        rows[file] = [
            'r1,Q1,"a\nb",50' if file == "responses" else 'r1,"often\nreally"',
            "",
            fault,
        ]
        paths = dict(zip(rows, write_survey(tmp_path, *rows.values())))
        with pytest.raises((ParseError, ValidationError)) as info:
            load_survey(paths["responses"], paths["respondents"])
        assert str(info.value) == f"{paths[file]}:{want}"

    def test_decode_error_wins_over_an_earlier_validation_error(self, tmp_path):
        # the whole file is decoded before any row is validated, so the
        # non-UTF-8 byte on line 6 is reported, not the ghost on line 3
        paths = write_survey(
            tmp_path,
            ["r1,Q1,cat,50", "ghost,Q1,cat,50", "r1,Q2,cat,40", "r1,Q3,cat,40",
             "r1,Q4,dog,40"],
            ["r1,yes"],
        )
        body = Path(paths[0]).read_bytes().replace(b"Q4,dog", b"Q4,d\xffg")
        Path(paths[0]).write_bytes(body)
        with pytest.raises(ParseError, match=r"responses\.csv:6: not valid UTF-8"):
            load_survey(*paths)


class TestFilters:
    def test_parse_operators(self):
        flt = RespondentFilter.parse("watches=yes")
        assert flt.matches({"watches": "yes"})
        assert not flt.matches({"watches": "no"})
        flt = RespondentFilter.parse("watches!=yes")
        assert flt.matches({"watches": "no"})
        flt = RespondentFilter.parse("watches in often|sometimes")
        assert flt.matches({"watches": "sometimes"})
        assert not flt.matches({"watches": "never"})

    def test_conjunction(self):
        flt = RespondentFilter.parse("watches=yes;gender!=F")
        assert flt.matches({"watches": "yes", "gender": "M"})
        assert not flt.matches({"watches": "yes", "gender": "F"})

    @pytest.mark.parametrize("text, clauses", [
        # the operator is the first of !=, " in ", = that the clause holds
        ("a!=b in c", [("a", "!=", ("b in c",))]),
        ("x=y!=z", [("x=y", "!=", ("z",))]),
        ("w in a=b|c", [("w", "in", ("a=b", "c"))]),
        (" w in  a | b ", [("w", "in", ("a", "b"))]),
        (";;w=a;", [("w", "=", ("a",))]),
        ("w =", [("w", "=", ("",))]),
        ("w in a|;v!=b", [("w", "in", ("a",)), ("v", "!=", ("b",))]),
    ])
    def test_parse_grammar(self, text, clauses):
        parsed = RespondentFilter.parse(text).clauses
        assert [(c.attribute, c.op, c.values) for c in parsed] == clauses

    @pytest.mark.parametrize("text, message", [
        ("w in |", "lists no values"),
        ("w", "has no operator"),
        (";", "contains no clauses"),
    ])
    def test_parse_errors(self, text, message):
        with pytest.raises(ValidationError, match=message):
            RespondentFilter.parse(text)

    def test_bad_syntax(self):
        with pytest.raises(ValidationError):
            RespondentFilter.parse("watches")
        with pytest.raises(ValidationError):
            RespondentFilter.parse("")

    def test_filtering_observations(self, tiny_survey):
        dataset = load_survey(*tiny_survey)
        samples = extract_samples(
            dataset, "Q1", RespondentFilter.parse("watches=yes")
        )
        # r1 and r2 watch; r3's dog at 30% is filtered out
        assert len(samples) == len({"r1", "r2"})
        assert samples.bins.tolist() == [7, 6]

    def test_absent_attribute_rejected(self, tiny_survey):
        dataset = load_survey(*tiny_survey)
        with pytest.raises(ValidationError, match="hobby"):
            extract_samples(dataset, "Q1", RespondentFilter.parse("hobby=chess"))

    def test_unknown_question(self, tiny_survey):
        dataset = load_survey(*tiny_survey)
        with pytest.raises(UnknownQuestion):
            extract_samples(dataset, "Q9")

    def test_empty_group(self, tiny_survey):
        dataset = load_survey(*tiny_survey)
        with pytest.raises(EmptyGroup):
            extract_samples(dataset, "Q1", RespondentFilter.parse("watches=maybe"))


class TestAnalyze:
    def test_single_group_known_table(self, tmp_path):
        # ten answers realizing mass 0.4/0.4/0.1/0.1 over bins 2 and 8:
        # variety 0.3 and baseline 0.3, reported x100 in the table
        rows = (
            ["p%d,Q1,left,20" % i for i in range(4)]
            + ["p%d,Q1,left,80" % i for i in range(4, 8)]
            + ["p8,Q1,right,20", "p9,Q1,right,80"]
        )
        paths = write_survey(
            tmp_path, rows, ["p%d,yes" % i for i in range(10)]
        )
        dataset = load_survey(*paths)
        report = analyze(dataset, ["Q1"], None, kinds=(TVD,))
        group = report.rows[0].groups[0]
        assert group.variety == pytest.approx(0.3, abs=1e-12)
        assert group.baseline == pytest.approx(0.3, abs=1e-12)
        table = report.to_table()
        assert "30.0" in table
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == (
            "question_id,metric,respondents,variety,baseline"
        )
        assert "Q1,tvd,10,0.3,0.3" in csv_text

    def test_two_group_report_shape(self, tmp_path):
        fixture = generate_two_group_survey(
            str(tmp_path), seed=5, n_per_group=40, n_questions=2
        )
        dataset = load_survey(fixture.responses_path, fixture.respondents_path)
        report = analyze(
            dataset,
            ["Q1", "Q2"],
            RespondentFilter.parse("watches_sports=often"),
            RespondentFilter.parse("watches_sports=rarely"),
            kinds=(TVD,),
            trials=30,
            stream=RandomStream(3),
        )
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.comparison is not None
            assert row.comparison.subsample_size == 40
            assert row.resampled_side == "b"  # equal sizes keep argument order
        payload = report.to_json_dict()
        assert payload["questions"][0]["comparison"]["trials"] == 30
        table = report.to_table()
        assert "group A" in table and "group B" in table

    def test_swapping_filters_swaps_error_bar_side(self, tmp_path):
        # unequal groups: 30 "often" vs 20 "rarely" respondents
        fixture = generate_two_group_survey(
            str(tmp_path / "big"), seed=6, n_per_group=30, n_questions=1
        )
        dataset = load_survey(fixture.responses_path, fixture.respondents_path)
        trimmed_ids = {f"N{i + 1:04d}" for i in range(20)}
        responses = tmp_path / "trimmed_responses.csv"
        with open(fixture.responses_path) as fh:
            lines = fh.read().splitlines()
        keep = [lines[0]] + [
            ln for ln in lines[1:]
            if not ln.startswith("N") or ln.split(",")[0] in trimmed_ids
        ]
        responses.write_text("".join(f"{ln}\n" for ln in keep))

        flt_a = RespondentFilter.parse("watches_sports=often")
        flt_b = RespondentFilter.parse("watches_sports=rarely")
        dataset = load_survey(str(responses), fixture.respondents_path)
        forward = analyze(dataset, ["Q1"], flt_a, flt_b, kinds=(TVD,), trials=50,
                          stream=RandomStream(4)).rows[0]
        backward = analyze(dataset, ["Q1"], flt_b, flt_a, kinds=(TVD,), trials=50,
                           stream=RandomStream(4)).rows[0]
        # the larger ("often") group carries the bar on both orderings
        assert forward.resampled_side == "a"
        assert backward.resampled_side == "b"
        assert forward.comparison == backward.comparison
        assert forward.groups[0].variety == backward.groups[1].variety
        assert forward.groups[1].variety == backward.groups[0].variety

    @pytest.mark.parametrize("trials, error, text", [
        (2.5, BadShape, "trials must be an integer, got 2.5"),
        (True, BadShape, "trials must be an integer, got True"),
        (-3, EmptySampleSet, "trials must be >= 1, got -3"),
    ])
    @pytest.mark.parametrize("two_group", [False, True])
    def test_trials_are_checked_for_one_group_and_for_two(
        self, tiny_survey, trials, error, text, two_group
    ):
        dataset = load_survey(*tiny_survey)
        filters = (RespondentFilter.parse("watches=yes"), RespondentFilter.parse("watches=no"))
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            analyze(dataset, ["Q1"], *filters[:1 + two_group], trials=trials)

    def test_an_empty_kind_list_is_refused(self, tiny_survey):
        dataset = load_survey(*tiny_survey)
        with pytest.raises(ConfigError, match="^kinds list is empty$"):
            analyze(dataset, ["Q1"], None, kinds=())

    @pytest.mark.parametrize("kind, question_id", [(HELLINGER, "Q1"), (TVD, "Q" * 20)])
    @pytest.mark.parametrize("two_group", [False, True])
    def test_table_cells_line_up_with_the_header(self, tmp_path, kind, question_id, two_group):
        # "hellinger x100" and a 20-character id are wider than their
        # columns' least widths; they used to push every later cell right
        rows = [f"r{i},{question_id},{'cat' if i % 3 else 'dog'},{10 * i % 110}" for i in range(12)]
        people = [f"r{i},{'yes' if i < 8 else 'no'}" for i in range(12)]
        dataset = load_survey(*write_survey(tmp_path, rows, people))
        filters = (RespondentFilter.parse("watches in yes|no"), RespondentFilter.parse("watches=no"))
        report = analyze(dataset, [question_id], *filters[:1 + two_group], kinds=(kind,), trials=5)
        header, line = report.to_table().splitlines()
        assert len(line) == len(header)
        metric_at = header.index("metric")
        assert line[:metric_at].rstrip() == question_id and line[metric_at - 1] == " "
        assert line[metric_at:].startswith(f"{kind.name} x100 ")
        titles = ("group A", "group B", "base A", "base B") if two_group else ("value", "baseline")
        for title in titles:
            end = header.index(title) + len(title)
            assert line[end - 1] != " " and line[end:end + 1] in ("", " ")

    @pytest.mark.parametrize("writer", ["to_csv", "to_table"])
    def test_two_group_run_without_rows_keeps_the_two_group_header(self, tiny_survey, writer):
        dataset = load_survey(*tiny_survey)
        filters = (RespondentFilter.parse("watches=yes"), RespondentFilter.parse("watches=no"))
        full = getattr(analyze(dataset, ["Q1"], *filters, trials=5), writer)()
        empty = getattr(analyze(dataset, [], *filters), writer)()
        assert empty.splitlines() == full.splitlines()[:1]

    @pytest.mark.parametrize("two_group", [False, True])
    def test_csv_quotes_question_ids(self, tmp_path, two_group):
        question_ids = ["Q1, part a", 'say "hi"', "line\nbreak", "Q1\rb"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for qid in question_ids:
            writer.writerows([
                ("r1", qid, "cat", 70), ("r2", qid, "dog", 20), ("r3", qid, "cat", 40),
            ])
        paths = write_survey(
            tmp_path, [buf.getvalue().rstrip("\n")], ["r1,yes", "r2,yes", "r3,no"]
        )
        dataset = load_survey(*paths)
        report = analyze(
            dataset, question_ids,
            RespondentFilter.parse("watches in yes|no"),
            RespondentFilter.parse("watches=yes") if two_group else None,
            trials=5,
        )
        header, *rows = csv.reader(io.StringIO(report.to_csv()))
        assert [row[0] for row in rows] == question_ids
        assert {len(row) for row in rows} == {len(header)}


class TestMultiChoiceQuestions:
    def test_three_option_question_has_no_baseline(self, tmp_path):
        rows = [
            "r1,Q1,red,30", "r2,Q1,green,40", "r3,Q1,blue,30", "r4,Q1,red,60",
        ]
        paths = write_survey(tmp_path, rows, [f"r{i},yes" for i in range(1, 5)])
        dataset = load_survey(*paths)
        assert dataset.questions[0].options == ("blue", "green", "red")
        report = analyze(dataset, ["Q1"], None, kinds=(TVD,))
        group = report.rows[0].groups[0]
        assert group.baseline is None
        assert group.variety >= 0.0
        # the metric still renders without a baseline column value
        assert "Q1,tvd,4," in report.to_csv()

    def test_two_group_three_option_question_in_every_format(self, tmp_path):
        # four "yes" respondents against two "no": group A is resampled
        rows = [
            "r1,Q1,red,30", "r2,Q1,green,40", "r3,Q1,blue,30", "r4,Q1,red,60",
            "r5,Q1,blue,70", "r6,Q1,green,20",
        ]
        people = [f"r{i},yes" for i in range(1, 5)] + ["r5,no", "r6,no"]
        dataset = load_survey(*write_survey(tmp_path, rows, people))
        report = analyze(
            dataset, ["Q1"],
            RespondentFilter.parse("watches=yes"), RespondentFilter.parse("watches=no"),
            kinds=(TVD,), trials=20, stream=RandomStream(1),
        )
        [row] = csv.DictReader(io.StringIO(report.to_csv()))
        assert (row["baseline_a"], row["baseline_b"]) == ("", "")
        assert (row["respondents_a"], row["respondents_b"]) == ("4", "2")
        assert row["resampled_side"] == "a"
        [record] = report.to_json_dict()["questions"]
        assert record["baseline_a"] is None and record["baseline_b"] is None
        assert record["resampled_side"] == "a"
        _, line = report.to_table().splitlines()
        # question 14, metric 10, groups 16 each, baselines 9 each
        assert re.fullmatch(r"\d+\.\d±\d+\.\d", line[24:40].strip())
        assert re.fullmatch(r"\d+\.\d", line[40:56].strip())
        assert len(line) == 74 and line[56:].strip() == ""


class TestFixtureGenerator:
    def test_round_trip_counts(self, tmp_path):
        fixture = generate_two_group_survey(
            str(tmp_path), seed=9, n_per_group=25, n_questions=3
        )
        dataset = load_survey(fixture.responses_path, fixture.respondents_path)
        for qid in fixture.question_ids:
            for value, flt in (
                ("often", "watches_sports=often"),
                ("rarely", "watches_sports=rarely"),
            ):
                loaded = extract_samples(
                    dataset, qid, RespondentFilter.parse(flt)
                )
                generated = fixture.samples[(qid, value)]
                np.testing.assert_array_equal(
                    empirical_joint(loaded).mass, empirical_joint(generated).mass
                )

    def test_regeneration_is_byte_identical(self, tmp_path):
        a = generate_two_group_survey(str(tmp_path / "a"), seed=9, n_per_group=10,
                                      n_questions=2)
        b = generate_two_group_survey(str(tmp_path / "b"), seed=9, n_per_group=10,
                                      n_questions=2)
        for attr in ("responses_path", "respondents_path"):
            with open(getattr(a, attr), "rb") as fa, open(getattr(b, attr), "rb") as fb:
                assert fa.read() == fb.read()


# --- differential test against the row-at-a-time extraction ---------------

ATTRIBUTE_VALUES = {"watches": ("often", "rarely", "never"), "gender": ("F", "M")}
PAD = st.sampled_from(["", " ", "  "])


def _clause_holds(attrs, attribute, op, values):
    value = attrs.get(attribute)
    if op == "=":
        return value == values[0]
    if op == "!=":
        return value != values[0]
    return value in values


def reference_extract(responses_path, respondents_path, question_id, clauses):
    """One question's (options, choices, bins, respondent ids), row by row.

    This is the per-row algorithm: every answer row is read in file order,
    the respondent's stripped attributes are tested against every clause,
    and kept rows append their choice index, bin and id.  Returns the
    string "empty" or "one label" where ``extract_samples`` must raise.
    """
    with open(respondents_path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    names = [h.strip() for h in header[1:]]
    attrs = {
        row[0].strip(): dict(zip(names, (v.strip() for v in row[1:]))) for row in rows
    }
    with open(responses_path, newline="") as fh:
        answers = [[f.strip() for f in row] for row in list(csv.reader(fh))[1:]]
    options = sorted({choice for _, qid, choice, _ in answers if qid == question_id})
    choices, bins, ids = [], [], []
    for rid, qid, choice, pct in answers:
        if qid != question_id:
            continue
        if not all(_clause_holds(attrs[rid], *clause) for clause in clauses):
            continue
        choices.append(options.index(choice))
        bins.append(int(pct) // 10)
        ids.append(rid)
    if not ids:
        return "empty"
    if len(options) < 2:
        return "one label"
    return tuple(options), choices, bins, ids


@st.composite
def filtered_surveys(draw):
    """(responses lines, respondents lines, question ids, filter clauses)."""
    n_respondents = draw(st.integers(1, 6))
    respondents = [
        f"r{i}," + ",".join(
            draw(PAD) + draw(st.sampled_from(values)) + draw(PAD)
            for values in ATTRIBUTE_VALUES.values()
        )
        for i in range(n_respondents)
    ]
    question_ids = [f"Q{j}" for j in range(draw(st.integers(1, 3)))]
    answers = []
    for qid in question_ids:
        labels = ("no", "yes", "maybe", "often")[: draw(st.integers(2, 4))]
        for i in range(n_respondents):
            if draw(st.booleans()):  # skipped answer
                continue
            label = draw(PAD) + draw(st.sampled_from(labels)) + draw(PAD)
            pct = draw(PAD) + str(10 * draw(st.integers(0, 10)))
            answers.append(f"{draw(PAD)}r{i},{qid},{label},{pct}")
    # shuffling makes questions first appear out of order
    answers = draw(st.permutations(answers))
    clauses = []
    for _ in range(draw(st.integers(0, 2))):
        attribute = draw(st.sampled_from(sorted(ATTRIBUTE_VALUES)))
        values = ATTRIBUTE_VALUES[attribute]
        op = draw(st.sampled_from(["=", "!=", "in"]))
        if op == "in":
            picked = draw(st.lists(st.sampled_from(values), min_size=1, max_size=3))
            clauses.append((attribute, op, tuple(picked)))
        else:
            clauses.append((attribute, op, (draw(st.sampled_from(values)),)))
    return answers, respondents, question_ids, clauses


def _filter_text(clauses):
    parts = []
    for attribute, op, values in clauses:
        if op == "in":
            parts.append(f"{attribute} in {'|'.join(values)}")
        else:
            parts.append(f"{attribute}{op}{values[0]}")
    return ";".join(parts)


@settings(max_examples=150, deadline=None)
@given(filtered_surveys())
def test_extract_samples_matches_row_by_row_reference(survey):
    answers, respondents, question_ids, clauses = survey
    with tempfile.TemporaryDirectory() as root:
        paths = write_survey(Path(root), answers, respondents,
                             respondents_header="respondent_id,watches,gender")
        flt = RespondentFilter.parse(_filter_text(clauses)) if clauses else None
        dataset = load_survey(*paths)
        first_seen = list(dict.fromkeys(a.split(",")[1] for a in answers))
        assert [q.question_id for q in dataset.questions] == first_seen
        for qid in first_seen:
            want = reference_extract(*paths, qid, clauses)
            if want == "empty":
                with pytest.raises(EmptyGroup):
                    extract_samples(dataset, qid, flt)
                continue
            if want == "one label":
                with pytest.raises(ValidationError, match="one choice label"):
                    extract_samples(dataset, qid, flt)
                continue
            options, choices, bins, ids = want
            samples = extract_samples(dataset, qid, flt)
            assert dataset.question(qid).options == options
            assert samples.choices.tolist() == choices
            assert samples.bins.tolist() == bins
            # one answer per respondent: each observation is a distinct one
            assert len(samples) == len(set(ids))


# --- differential test against the row-at-a-time loader -------------------

def _reference_read_rows(path):
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = [(reader.line_num, row) for row in reader]
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    rows = [(ln, row) for ln, row in rows if row]
    if not rows:
        raise ParseError(f"{path}: file is empty")
    _, header = rows[0]
    return [h.strip() for h in header], rows[1:]


def reference_load_survey(responses_path, respondents_path):
    """(questions, respondents, attributes, responses), one row at a time.

    This is the row-loop loader that the column-at-a-time ``load_survey``
    replaced: every row is checked in file order, and within a row the
    checks run as field count, integer percent, 10 % grid, known
    respondent, new (respondent, question) pair; empty ids and labels are
    checked after every row.  The generated files below are valid UTF-8,
    so the decode path is left out.
    """
    header, rows = _reference_read_rows(respondents_path)
    if not header or header[0] != "respondent_id":
        raise ParseError(
            f"{respondents_path}: first column must be respondent_id, got {header!r}"
        )
    attr_names = header[1:]
    respondents = {}
    values = []
    for ln, row in rows:
        if len(row) != len(header):
            raise ParseError(
                f"{respondents_path}:{ln}: expected {len(header)} fields, got {len(row)}"
            )
        rid = row[0].strip()
        if rid in respondents:
            raise ValidationError(
                f"{respondents_path}:{ln}: duplicate respondent id {rid!r}"
            )
        respondents[rid] = len(respondents)
        values.append([value.strip() for value in row[1:]])
    for ln, row in rows:  # empty fields are checked after every other fault
        if not row[0].strip():
            raise ValidationError(f"{respondents_path}:{ln}: empty respondent_id")
    table = np.array(values, dtype=object).reshape(len(values), len(attr_names))

    header, rows = _reference_read_rows(responses_path)
    expected = ("respondent_id", "question_id", "choice", "prediction_pct")
    if tuple(header) != expected:
        raise ParseError(
            f"{responses_path}: header must be {','.join(expected)}, "
            f"got {','.join(header)}"
        )
    codes, labels, seen_pairs, question_index = [], [], set(), {}
    for ln, row in rows:
        if len(row) != 4:
            raise ParseError(f"{responses_path}:{ln}: expected 4 fields, got {len(row)}")
        rid, qid, choice, pct_text = (f.strip() for f in row)
        try:
            pct = int(pct_text)
        except ValueError:
            raise ParseError(
                f"{responses_path}:{ln}: prediction_pct {pct_text!r} is not an integer"
            ) from None
        if pct < 0 or pct > 100 or pct % 10 != 0:
            raise ValidationError(
                f"{responses_path}:{ln}: prediction_pct must be one of "
                f"0,10,...,100, got {pct}"
            )
        if rid not in respondents:
            raise ValidationError(f"{responses_path}:{ln}: unknown respondent {rid!r}")
        if (rid, qid) in seen_pairs:
            raise ValidationError(
                f"{responses_path}:{ln}: duplicate answer by {rid!r} to {qid!r}"
            )
        seen_pairs.add((rid, qid))
        q = question_index.setdefault(qid, len(question_index))
        codes += (respondents[rid], q, 0, pct // 10)
        labels.append(choice)
    for ln, row in rows:
        for name, text in (("question_id", row[1]), ("choice", row[2])):
            if not text.strip():
                raise ValidationError(f"{responses_path}:{ln}: empty {name}")
    responses = np.array(codes, dtype=np.intp).reshape(-1, 4)
    choices = np.array(labels, dtype=object)
    questions = []
    for qid, q in question_index.items():
        rows_q = responses[:, 1] == q
        options, codes_q = np.unique(choices[rows_q], return_inverse=True)
        responses[rows_q, 2] = codes_q
        questions.append((qid, tuple(options)))
    attributes = {name: table[:, i].tolist() for i, name in enumerate(attr_names)}
    return tuple(questions), tuple(respondents), attributes, responses.tolist()


GRID_PCTS = [str(10 * i) for i in range(11)] + ["+10", "010", "1_0", "٥٠"]
BAD_PCTS = ["55", "-10", "110", "x"]
# a newline inside a quoted label moves line_num; a comma forces quoting
LABELS = ["A", "B", "C", "a\nb", "x,y"]
LOADER_FAULTS = st.sampled_from(["ragged", "ghost", "duplicate", "pct"])


def _csv_line(fields):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


@st.composite
def survey_files(draw):
    """Texts of (responses.csv, respondents.csv) with faults mixed in.

    No field that the loaders strip is ever empty, so both loaders agree
    on every file this draws.
    """
    def pad(text):
        return draw(PAD) + text + draw(PAD)

    ids = [f"r{i}" for i in range(draw(st.integers(1, 4)))]
    people = [[pad(rid), pad(draw(st.sampled_from(["often", "rarely"])))]
              for rid in ids]
    fault = draw(st.sampled_from([None] * 6 + ["duplicate", "ragged"]))
    if fault is not None:
        row = [pad(draw(st.sampled_from(ids))), "x"] if fault == "duplicate" else ["r9"]
        people.insert(draw(st.integers(0, len(people))), row)
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(["Q1", "Q2", "Q3"])),
        unique=True, max_size=8,
    ))
    rows = [
        [pad(rid), pad(qid), pad(draw(st.sampled_from(LABELS))),
         pad(draw(st.sampled_from(GRID_PCTS)))]
        for rid, qid in pairs
    ]
    for fault in draw(st.lists(LOADER_FAULTS, max_size=3)):
        row = [pad("r0"), "Q1", pad(draw(st.sampled_from(LABELS))),
               draw(st.sampled_from(GRID_PCTS))]
        if fault == "ragged":
            row = row[:3] if draw(st.booleans()) else row + ["extra"]
        elif fault == "ghost":
            row[0] = pad("ghost")
        elif fault == "duplicate" and rows:
            row[:2] = draw(st.sampled_from(rows))[:2]
        elif fault == "pct":
            row[3] = pad(draw(st.sampled_from(BAD_PCTS)))
        rows.insert(draw(st.integers(0, len(rows))), row)

    def text(header, body):
        lines = [_csv_line(header)]
        for fields in body:
            lines += ["\n"] * draw(st.integers(0, 1)) + [_csv_line(fields)]
        return draw(st.sampled_from(["", "\ufeff"])) + "".join(lines)

    return (text(["respondent_id", "question_id", "choice", "prediction_pct"], rows),
            text(["respondent_id", "watch"], people))


def _load_outcome(loader, paths):
    try:
        return loader(*paths)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


def _assert_same_outcome(got, want):
    """``load_survey``'s outcome equals the reference's, rows grouped by question."""
    if isinstance(got, tuple):
        assert got == want
        return
    assert got.responses.dtype == np.intp and got.responses.shape[1:] == (4,)
    assert not got.responses.flags.writeable
    assert all(v.dtype == object and not v.flags.writeable
               for v in got.attributes.values())
    questions = tuple((q.question_id, q.options) for q in got.questions)
    attributes = {name: v.tolist() for name, v in got.attributes.items()}
    # rows come grouped by question, file order within a question
    *head, rows = want
    assert (questions, got.respondents, attributes, got.responses.tolist()) == (
        *head, sorted(rows, key=lambda row: row[1])
    )


@settings(max_examples=300, deadline=None)
@given(survey_files())
def test_load_survey_matches_row_loop_reference(files):
    with tempfile.TemporaryDirectory() as root:
        paths = [str(Path(root) / name) for name in ("responses.csv", "respondents.csv")]
        for path, body in zip(paths, files):
            Path(path).write_text(body, encoding="utf-8")
        want = _load_outcome(reference_load_survey, paths)
        got = _load_outcome(load_survey, paths)
    _assert_same_outcome(got, want)


PLAIN_PCTS = [str(10 * i) for i in range(11)] + ["+10", "010", "1_0"]
PLAIN_FAULTS = st.sampled_from(["ghost", "duplicate", "pct", "empty"])
# each takes a file one step outside the byte path's rule; None keeps it plain
OUTSIDE_STEPS = st.sampled_from(
    [None] * 8 + ["long", "space", "tab", "quote", "crlf", "non-ascii", "blank", "ragged"]
)


@st.composite
def plain_survey_files(draw):
    """(responses.csv text, respondents.csv text, whether the first is plain).

    A plain file passes the byte path's rule: printable ASCII other than
    space and ``"``, four fields a line, no blank line, data fields of at
    most 8 bytes.  Faults that the loaders report still occur in it.
    """
    ids = [f"r{i}" for i in range(draw(st.integers(1, 4)))]
    people = "respondent_id,watch\n" + "".join(f"{rid},often\n" for rid in ids)
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(["Q1", "Q2", "Q10"])),
        unique=True, max_size=10,
    ))
    rows = [[rid, qid, draw(st.sampled_from(["A", "B", "ab", "x"])),
             draw(st.sampled_from(PLAIN_PCTS))] for rid, qid in pairs]
    for fault in draw(st.lists(PLAIN_FAULTS, max_size=2)):
        row = ["r0", "Q1", "A", "50"]
        if fault == "ghost":
            row[0] = "ghost"
        elif fault == "duplicate" and rows:
            row[:2] = draw(st.sampled_from(rows))[:2]
        elif fault == "pct":
            row[3] = draw(st.sampled_from(["55", "-10", "110", "x"]))
        elif fault == "empty":
            row[draw(st.integers(0, 3))] = ""
        rows.insert(draw(st.integers(0, len(rows))), row)

    step = draw(OUTSIDE_STEPS)
    if step is not None:  # at least two rows to take the step on
        rows += [["r0", "Q1", "A", "50"] for _ in range(2 - len(rows))]
        row, col = draw(st.sampled_from(rows)), draw(st.integers(0, 3))
    if step == "long":  # 9 bytes, and valid
        row[2:] = draw(st.sampled_from([["ninebytes", "50"], ["A", "000000010"]]))
    elif step in ("space", "tab"):
        pad = " " if step == "space" else "\t"
        row[col] = draw(st.sampled_from([pad + row[col], row[col] + pad]))
    elif step == "quote":
        row[col] = f'"{row[col]}"'
    elif step == "non-ascii":
        row[2] = "é"
    elif step == "ragged":
        # a short row and a long one keep the file's field count a multiple of 4
        shape = draw(st.sampled_from(["short", "long", "both"]))
        if shape != "long":
            row.pop()
        if shape != "short":
            rows[-1 if row is rows[0] else 0].append("x")
    lines = [",".join(survey.RESPONSES_HEADER)] + [",".join(row) for row in rows]
    if step == "blank":  # four blank lines keep the field count a multiple of 4
        blank = draw(st.sampled_from(["", "\n\n\n"]))
        lines.insert(draw(st.integers(1, len(lines) - 1)), blank)
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    if step == "crlf":
        text = text.replace("\n", "\r\n")
    return draw(st.sampled_from(["", "\ufeff"])) + text, people, step is None


@settings(max_examples=400, deadline=None)
@given(plain_survey_files())
def test_plain_files_load_as_the_row_loop_reference_does(files):
    *bodies, plain = files
    read_as_csv = []
    read_table = survey._read_table

    def spy(path):
        read_as_csv.append(Path(path).name)
        return read_table(path)

    with tempfile.TemporaryDirectory() as root:
        paths = [str(Path(root) / name) for name in ("responses.csv", "respondents.csv")]
        for path, body in zip(paths, bodies):
            Path(path).write_bytes(body.encode("utf-8"))
        want = _load_outcome(reference_load_survey, paths)
        with mock.patch.object(survey, "_read_table", spy):
            got = _load_outcome(load_survey, paths)
    # a plain file never reaches the csv reader; one step outside always does
    assert ("responses.csv" in read_as_csv) is not plain
    _assert_same_outcome(got, want)


def _survey_scan_shaped(root):
    """Paths of a small survey shaped as the survey-scan benchmark's input."""
    rng = np.random.default_rng(7)
    ids = [f"R{i:05d}" for i in range(60)]
    people = "".join(f"{rid},{rng.choice(['often', 'rarely'])}\n" for rid in ids)
    answers = "".join(
        f"{rid},Q{j:02d},{'ABCD'[rng.integers(4)]},{10 * rng.integers(11)}\n"
        for rid in ids for j in range(1, 41) if rng.random() > 0.05
    )
    (root / "responses.csv").write_text(",".join(survey.RESPONSES_HEADER) + "\n" + answers)
    (root / "respondents.csv").write_text("respondent_id,watches_sports\n" + people)
    return str(root / "responses.csv"), str(root / "respondents.csv")


@pytest.mark.parametrize("source", ["fixture", "survey-scan"])
def test_plain_files_skip_the_csv_reader(tmp_path, monkeypatch, source):
    if source == "fixture":
        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "athletes_like"
        paths = str(fixture / "responses.csv"), str(fixture / "respondents.csv")
    else:
        paths = _survey_scan_shaped(tmp_path)
    want = reference_load_survey(*paths)
    read_table = survey._read_table

    def respondents_only(path):
        if Path(path).name == "responses.csv":
            raise AssertionError(f"{path} went to the csv reader")
        return read_table(path)

    monkeypatch.setattr(survey, "_read_table", respondents_only)
    _assert_same_outcome(load_survey(*paths), want)
