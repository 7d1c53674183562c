"""Survey-file ingestion and group-comparison analysis.

Data arrives as two CSV files: one row per (respondent, question) answer
and one row per respondent with side-question attributes.  Answers pair a
choice label with a prediction percent on the 0/10/.../100 grid.  The
analyzer turns a question's filtered answers into a sample set, scores it
with a variety metric and the choice-unbalance baseline, and compares two
respondent groups at equal size via without-replacement subsampling.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Mapping, Sequence

import numpy as np

from .distributions import JointDistribution
from .divergence import DivergenceKind, TVD, baseline, f_variety
from .errors import (
    EmptyGroup,
    ParseError,
    UnknownQuestion,
    ValidationError,
)
from .estimation import (
    N_PREDICTION_BINS,
    GroupComparison,
    SampleSet,
    compare_groups_equalized,
    empirical_joint,
)
from .sampling import RandomStream

RESPONSES_HEADER = ("respondent_id", "question_id", "choice", "prediction_pct")

# Percent between adjacent prediction options.
_PCT_STEP = 100 // (N_PREDICTION_BINS - 1)

# Bin codes of prediction_pct texts that are not an integer or off the grid.
_NOT_AN_INTEGER = -1
_OFF_GRID = -2


@dataclass(frozen=True)
class SurveyQuestion:
    question_id: str
    options: tuple[str, ...]  # sorted distinct choice labels

    @property
    def n_choices(self) -> int:
        return len(self.options)


@dataclass(frozen=True, eq=False)
class SurveyDataset:
    """The two survey files as columns.

    ``respondents`` holds the ids in file order; ``attributes`` holds one
    object array per side question, aligned with it.  ``responses`` is a
    read-only ``(rows, 4)`` intp array in file order with columns respondent
    index, question index, choice index into ``options`` and prediction bin.
    """

    questions: tuple[SurveyQuestion, ...]
    respondents: tuple[str, ...]
    attributes: dict[str, np.ndarray]
    responses: np.ndarray

    def question(self, question_id: str) -> SurveyQuestion:
        for q in self.questions:
            if q.question_id == question_id:
                return q
        known = ", ".join(q.question_id for q in self.questions)
        raise UnknownQuestion(f"no question {question_id!r}; known: {known}")

    def attribute_names(self) -> set[str]:
        return set(self.attributes)


def _read_table(path: str) -> tuple[list[str], list[str], list[int], list[int]]:
    """A CSV file as flat columns: header, data fields, row widths, row lines.

    The data fields of all rows follow one another in file order, stripped;
    ``lines[i]`` is the file line on which data row ``i`` ends.  Blank rows
    are skipped.  The whole file is decoded and tokenized before any row is
    validated, so a decode or CSV error anywhere in it is reported first.
    """
    fields: list[str] = []
    widths: list[int] = []
    lines: list[int] = []
    # utf-8-sig drops the byte-order mark that spreadsheet exports prepend
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if row:
                    fields += row
                    widths.append(len(row))
                    lines.append(reader.line_num)
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise _decode_error(path) from None
    if not widths:
        raise ParseError(f"{path}: file is empty")
    fields = list(map(str.strip, fields))
    return fields[: widths[0]], fields[widths[0]:], widths[1:], lines[1:]


def _decode_error(path: str) -> ParseError:
    """ParseError naming the first line of ``path`` that is not valid UTF-8."""
    with open(path, "rb") as fh:
        for line, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError(f"{path}:{line}: not valid UTF-8: {exc.reason}")
    return ParseError(f"{path}: not valid UTF-8")


def _regular_rows(
    path: str, widths: list[int], lines: list[int], width: int
) -> tuple[int, ParseError | None]:
    """Count of leading rows with ``width`` fields, and the first other row's error.

    A row of the wrong width has no columns to check, so the rows before it
    are checked on their own, and its error stands if they all pass.
    """
    ragged = np.flatnonzero(np.array(widths, dtype=np.intp) != width)
    if not len(ragged):
        return len(widths), None
    row = int(ragged[0])
    return row, ParseError(
        f"{path}:{lines[row]}: expected {width} fields, got {widths[row]}"
    )


def _first_fault(checks: Sequence[np.ndarray]) -> tuple[int, int] | None:
    """(row, check) of the first failed check, or None when all pass.

    Each check is a boolean mask of failing rows.  Rows are taken in file
    order and, within a row, checks in the order given.  A mask needs to be
    exact only up to the first failing row, since the rows before it are
    valid.
    """
    failed = np.stack(checks, axis=1).ravel()  # row-major: row by row
    if not failed.any():
        return None
    return divmod(int(np.argmax(failed)), len(checks))


def _check_filled(path: str, lines: list[int], columns: dict[str, list[str]]) -> None:
    """Reject the first row that leaves one of ``columns`` empty."""
    first_empty = {name: col.index("") for name, col in columns.items() if "" in col}
    if first_empty:
        name = min(first_empty, key=first_empty.__getitem__)  # ties: first column
        raise ValidationError(f"{path}:{lines[first_empty[name]]}: empty {name}")


def _load_respondents(path: str) -> tuple[dict[str, int], dict[str, np.ndarray]]:
    """Respondent index by id in file order, and one attribute array per column."""
    header, fields, widths, lines = _read_table(path)
    if not header or header[0] != "respondent_id":
        raise ParseError(f"{path}: first column must be respondent_id, got {header!r}")
    counts = Counter(header)
    repeated = [name for name, count in counts.items() if count > 1]
    if repeated:
        raise ParseError(
            f"{path}: column {repeated[0]!r} appears {counts[repeated[0]]} times "
            "in the header"
        )
    width = len(header)
    n, ragged = _regular_rows(path, widths, lines, width)
    ids = fields[: n * width : width]
    index = {rid: i for i, rid in enumerate(dict.fromkeys(ids))}
    # ids are numbered in first-appearance order, so while rows are unique
    # each row's number is its own index; the first repeat breaks that
    repeats = np.flatnonzero(np.fromiter(map(index.__getitem__, ids), np.intp, n)
                             != np.arange(n))
    if len(repeats):
        row = repeats[0]
        raise ValidationError(f"{path}:{lines[row]}: duplicate respondent id {ids[row]!r}")
    if ragged is not None:
        raise ragged
    _check_filled(path, lines, {"respondent_id": ids})
    table = np.array(fields, dtype=object).reshape(n, width)
    table.flags.writeable = False
    return index, {name: table[:, i] for i, name in enumerate(header[1:], start=1)}


def _load_responses(
    path: str, respondents: dict[str, int]
) -> tuple[tuple[SurveyQuestion, ...], np.ndarray]:
    """Questions in first-appearance order and the ``(rows, 4)`` response codes."""
    header, fields, widths, lines = _read_table(path)
    if tuple(header) != RESPONSES_HEADER:
        raise ParseError(
            f"{path}: header must be {','.join(RESPONSES_HEADER)}, got {','.join(header)}"
        )
    width = len(RESPONSES_HEADER)
    n, ragged = _regular_rows(path, widths, lines, width)
    rids, qids, labels, pct_texts = (fields[i : n * width : width] for i in range(width))

    # int() runs once per distinct text, so the accepted syntax (sign,
    # leading zeros, underscores, non-ASCII digits) is Python's, not numpy's
    bin_of: dict[str, int] = {}
    for text in set(pct_texts):
        try:
            pct = int(text)
        except ValueError:
            bin_of[text] = _NOT_AN_INTEGER
            continue
        on_grid = 0 <= pct <= 100 and pct % _PCT_STEP == 0
        bin_of[text] = pct // _PCT_STEP if on_grid else _OFF_GRID
    bins = np.fromiter(map(bin_of.__getitem__, pct_texts), np.intp, n)
    people = np.fromiter(map(respondents.get, rids, repeat(-1)), np.intp, n)
    question_index = {qid: q for q, qid in enumerate(dict.fromkeys(qids))}
    questions = np.fromiter(map(question_index.__getitem__, qids), np.intp, n)
    # unknown respondents (-1) key below 0, apart from every known pair
    pairs = people * len(question_index) + questions
    repeated_pair = np.ones(n, dtype=bool)
    repeated_pair[np.unique(pairs, return_index=True)[1]] = False

    fault = _first_fault(
        (bins == _NOT_AN_INTEGER, bins == _OFF_GRID, people < 0, repeated_pair)
    )
    if fault is not None:
        row, check = fault
        where = f"{path}:{lines[row]}"
        if check == 0:
            raise ParseError(
                f"{where}: prediction_pct {pct_texts[row]!r} is not an integer"
            )
        if check == 1:
            raise ValidationError(
                f"{where}: prediction_pct must be one of 0,{_PCT_STEP},...,100, "
                f"got {int(pct_texts[row])}"
            )
        if check == 2:
            raise ValidationError(f"{where}: unknown respondent {rids[row]!r}")
        raise ValidationError(
            f"{where}: duplicate answer by {rids[row]!r} to {qids[row]!r}"
        )
    if ragged is not None:
        raise ragged
    _check_filled(path, lines, {"question_id": qids, "choice": labels})

    # Rank every label once.  The distinct (question, label rank) keys then
    # sort by question, then label: each question's options are one run of
    # them, and a row's choice code is its key's offset within that run.
    names = sorted(set(labels))
    rank = {label: i for i, label in enumerate(names)}
    label_ranks = np.fromiter(map(rank.__getitem__, labels), np.intp, n)
    keys, key_of_row = np.unique(questions * len(names) + label_ranks, return_inverse=True)
    n_options = np.bincount(keys // len(names), minlength=len(question_index))
    run_start = np.cumsum(n_options) - n_options
    options = [names[i] for i in keys % len(names)]
    responses = np.column_stack((people, questions, key_of_row - run_start[questions], bins))
    responses.flags.writeable = False
    return tuple(
        SurveyQuestion(qid, tuple(options[start:start + count]))
        for qid, start, count in zip(question_index, run_start, n_options)
    ), responses


def load_survey(responses_path: str, respondents_path: str) -> SurveyDataset:
    """Parse and cross-validate the two survey files.

    Malformed rows raise :class:`ParseError` with the file line number;
    rows that parse but break an invariant (prediction off the 10% grid,
    unknown respondent, duplicate answer, empty id or label) raise
    :class:`ValidationError`.  The respondents file is checked first.  In
    each file a decode or CSV error anywhere wins; then the first faulting
    row, with its checks in the order field count, integer percent, grid,
    known respondent, new answer; empty fields are checked last.
    """
    respondents, attributes = _load_respondents(respondents_path)
    questions, responses = _load_responses(responses_path, respondents)
    return SurveyDataset(
        questions=questions,
        respondents=tuple(respondents),
        attributes=attributes,
        responses=responses,
    )


@dataclass(frozen=True)
class FilterClause:
    attribute: str
    op: str  # "=", "!=", or "in"
    values: tuple[str, ...]

    def matches(self, attrs: Mapping[str, Any]) -> bool | np.ndarray:
        """A bool for one respondent's dict; a mask over ``dataset.attributes``."""
        value = attrs.get(self.attribute)
        if self.op == "=":
            return value == self.values[0]
        if self.op == "!=":
            return value != self.values[0]
        return np.isin(value, self.values)


@dataclass(frozen=True)
class RespondentFilter:
    """Conjunction of attribute predicates over respondent side answers."""

    clauses: tuple[FilterClause, ...]

    @classmethod
    def parse(cls, text: str) -> "RespondentFilter":
        """Parse e.g. ``"watch=often"``, ``"watch!=never;gender=F"``,
        ``"watch in often|sometimes"``."""
        clauses = []
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            if "!=" in part:
                attr, _, value = part.partition("!=")
                clauses.append(FilterClause(attr.strip(), "!=", (value.strip(),)))
            elif " in " in part:
                attr, _, values = part.partition(" in ")
                alternatives = tuple(v.strip() for v in values.split("|") if v.strip())
                if not alternatives:
                    raise ValidationError(f"filter clause {part!r} lists no values")
                clauses.append(FilterClause(attr.strip(), "in", alternatives))
            elif "=" in part:
                attr, _, value = part.partition("=")
                clauses.append(FilterClause(attr.strip(), "=", (value.strip(),)))
            else:
                raise ValidationError(
                    f"filter clause {part!r} has no operator (=, !=, in)"
                )
        if not clauses:
            raise ValidationError(f"filter {text!r} contains no clauses")
        return cls(clauses=tuple(clauses))

    def validate_against(self, dataset: SurveyDataset) -> None:
        known = dataset.attribute_names()
        for clause in self.clauses:
            if clause.attribute not in known:
                raise ValidationError(
                    f"filter references unknown attribute {clause.attribute!r}; "
                    f"dataset has: {', '.join(sorted(known))}"
                )

    def matches(self, attrs: Mapping[str, Any]) -> bool | np.ndarray:
        return np.logical_and.reduce([clause.matches(attrs) for clause in self.clauses])


def extract_samples(
    dataset: SurveyDataset,
    question_id: str,
    respondent_filter: RespondentFilter | None = None,
) -> SampleSet:
    """Sample set of one question's answers from the filtered respondents.

    :func:`load_survey` rejects a second answer to a question, so each
    observation is a distinct respondent and group comparisons can
    subsample answers.
    """
    question = dataset.question(question_id)
    responses = dataset.responses
    rows = responses[responses[:, 1] == dataset.questions.index(question)]
    if respondent_filter is not None:
        respondent_filter.validate_against(dataset)
        rows = rows[respondent_filter.matches(dataset.attributes)[rows[:, 0]]]
    if not len(rows):
        raise EmptyGroup(
            f"no observations for question {question_id!r} under the given filter"
        )
    if question.n_choices < 2:
        raise ValidationError(
            f"question {question_id!r} has one choice label, "
            f"{question.options[0]!r}; a variety needs at least 2"
        )
    return SampleSet(
        n_choices=question.n_choices,
        n_bins=N_PREDICTION_BINS,
        choices=rows[:, 2],
        bins=rows[:, 3],
    )


@dataclass(frozen=True)
class QuestionReport:
    """Per-question metrics; the b-side fields are None for single-group runs.

    ``variety_a``/``variety_b`` are full-group values.  When two groups are
    compared, ``comparison`` holds the equalized-subsampling outcome and
    ``resampled_side`` names the larger group ("a" or "b"), the one whose
    table entry is a subsample mean with an error bar.
    """

    question_id: str
    metric_name: str
    n_a: int
    variety_a: float
    baseline_a: float | None
    n_b: int | None = None
    variety_b: float | None = None
    baseline_b: float | None = None
    comparison: GroupComparison | None = None
    resampled_side: str | None = None


@dataclass(frozen=True)
class AnalysisReport:
    rows: tuple[QuestionReport, ...]

    def to_json_dict(self) -> dict[str, Any]:
        out = []
        for r in self.rows:
            row: dict[str, Any] = {
                "question_id": r.question_id,
                "metric": r.metric_name,
                "respondents_a": r.n_a,
                "variety_a": r.variety_a,
                "baseline_a": r.baseline_a,
            }
            if r.n_b is not None:
                row.update(
                    respondents_b=r.n_b,
                    variety_b=r.variety_b,
                    baseline_b=r.baseline_b,
                    resampled_side=r.resampled_side,
                    comparison=r.comparison.to_json_dict() if r.comparison else None,
                )
            out.append(row)
        return {"questions": out}

    def to_csv(self) -> str:
        """CSV text; reals carry 6 significant digits, ids are quoted as needed."""
        two_group = any(r.n_b is not None for r in self.rows)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if two_group:
            writer.writerow((
                "question_id", "metric", "respondents_a", "respondents_b",
                "variety_a", "variety_b", "baseline_a", "baseline_b",
                "resampled_side", "resampled_mean", "resampled_std",
                "trials", "subsample_size",
            ))
            for r in self.rows:
                cmp = r.comparison
                assert cmp is not None and r.variety_b is not None
                writer.writerow((
                    r.question_id, r.metric_name, r.n_a, r.n_b,
                    f"{r.variety_a:.6g}", f"{r.variety_b:.6g}",
                    _fmt_opt(r.baseline_a), _fmt_opt(r.baseline_b),
                    r.resampled_side, f"{cmp.group_b_mean:.6g}",
                    f"{cmp.group_b_std:.6g}", cmp.trials, cmp.subsample_size,
                ))
        else:
            writer.writerow(("question_id", "metric", "respondents", "variety", "baseline"))
            for r in self.rows:
                writer.writerow((
                    r.question_id, r.metric_name, r.n_a,
                    f"{r.variety_a:.6g}", _fmt_opt(r.baseline_a),
                ))
        return buf.getvalue()

    def to_table(self) -> str:
        """Human-readable table; metric values are scaled by 100.

        The larger group's entries are subsample means with a std; the
        smaller group's entry is its plain full-sample value.
        """
        lines = []
        two_group = any(r.n_b is not None for r in self.rows)
        if two_group:
            lines.append(
                f"{'question':<14}{'metric':<10}{'group A':>16}{'group B':>16}"
                f"{'base A':>9}{'base B':>9}"
            )
            for r in self.rows:
                cmp = r.comparison
                assert cmp is not None
                cell_a = f"{100 * r.variety_a:.1f}"
                cell_b = f"{100 * r.variety_b:.1f}"
                resampled = f"{100 * cmp.group_b_mean:.1f}±{100 * cmp.group_b_std:.1f}"
                if r.resampled_side == "a":
                    cell_a = resampled
                else:
                    cell_b = resampled
                lines.append(
                    f"{r.question_id:<14}{r.metric_name + ' x100':<10}"
                    f"{cell_a:>16}{cell_b:>16}"
                    f"{_fmt_x100(r.baseline_a):>9}{_fmt_x100(r.baseline_b):>9}"
                )
        else:
            lines.append(
                f"{'question':<14}{'metric':<10}{'value':>10}{'baseline':>10}"
            )
            for r in self.rows:
                lines.append(
                    f"{r.question_id:<14}{r.metric_name + ' x100':<10}"
                    f"{100 * r.variety_a:>10.1f}{_fmt_x100(r.baseline_a):>10}"
                )
        return "\n".join(lines) + "\n"


def _fmt_opt(value: float | None) -> str:
    return "" if value is None else f"{value:.6g}"


def _fmt_x100(value: float | None) -> str:
    return "" if value is None else f"{100 * value:.1f}"


def _maybe_baseline(dist: JointDistribution) -> float | None:
    return baseline(dist) if dist.n_choices == 2 else None


def analyze(
    dataset: SurveyDataset,
    question_ids: Sequence[str],
    filter_a: RespondentFilter | None,
    filter_b: RespondentFilter | None = None,
    kind: DivergenceKind = TVD,
    trials: int = 1000,
    stream: RandomStream | None = None,
) -> AnalysisReport:
    """Score each question for one group, or compare two groups.

    With ``filter_b`` present the two groups are compared at equal
    respondent counts (see :func:`compare_groups_equalized`); the error
    bar lands on whichever group is larger for that question.
    """
    if stream is None:
        stream = RandomStream(0)
    rows = []
    for qid in question_ids:
        samples_a = extract_samples(dataset, qid, filter_a)
        joint_a = empirical_joint(samples_a)
        n_a = len(samples_a)
        variety_a = f_variety(joint_a, kind)
        baseline_a = _maybe_baseline(joint_a)
        if filter_b is None:
            rows.append(
                QuestionReport(
                    question_id=qid,
                    metric_name=kind.name,
                    n_a=n_a,
                    variety_a=variety_a,
                    baseline_a=baseline_a,
                )
            )
            continue
        samples_b = extract_samples(dataset, qid, filter_b)
        joint_b = empirical_joint(samples_b)
        n_b = len(samples_b)
        comparison = compare_groups_equalized(
            samples_a, samples_b, kind, trials=trials, stream=stream.spawn("q", qid)
        )
        rows.append(
            QuestionReport(
                question_id=qid,
                metric_name=kind.name,
                n_a=n_a,
                variety_a=variety_a,
                baseline_a=baseline_a,
                n_b=n_b,
                variety_b=f_variety(joint_b, kind),
                baseline_b=_maybe_baseline(joint_b),
                comparison=comparison,
                resampled_side="a" if n_a > n_b else "b",
            )
        )
    return AnalysisReport(rows=tuple(rows))
