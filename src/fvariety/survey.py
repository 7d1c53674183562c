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
from itertools import islice, repeat
from typing import Any, Mapping, Sequence

import numpy as np

from .divergence import DivergenceKind, TVD, baseline, f_variety
from .errors import (
    EmptyGroup,
    ParseError,
    UnknownQuestion,
    ValidationError,
)
from .estimation import (
    N_PREDICTION_BINS,
    _PCT_STEP,
    GroupComparison,
    SampleSet,
    compare_groups_equalized,
    empirical_joint,
)
from .sampling import RandomStream

RESPONSES_HEADER = ("respondent_id", "question_id", "choice", "prediction_pct")

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


def _read_table(path: str) -> tuple[list[str], list[str], np.ndarray]:
    """A CSV file as flat columns: header, data fields, ragged-row mask.

    The data fields of all rows follow one another in file order, stripped;
    each row is cut or padded with ``""`` to the header's width, and
    ``ragged[i]`` marks a data row ``i`` of another width.  Blank rows are
    skipped.  The whole file is decoded and tokenized before any row is
    validated, so a decode or CSV error anywhere in it is reported first.
    """
    fields: list[str] = []
    ragged: list[int] = []
    # utf-8-sig drops the byte-order mark that spreadsheet exports prepend
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(filter(None, reader), [])
            width = len(header)
            for row in reader:
                if len(row) == width:
                    fields += row
                elif row:
                    ragged.append(len(fields) // width)
                    fields += (row + [""] * width)[:width]
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise _decode_error(path) from None
    if not header:
        raise ParseError(f"{path}: file is empty")
    mask = np.zeros(len(fields) // width, dtype=bool)
    mask[ragged] = True
    return [name.strip() for name in header], list(map(str.strip, fields)), mask


def _decode_error(path: str) -> ParseError:
    """ParseError naming the first line of ``path`` that is not valid UTF-8."""
    with open(path, "rb") as fh:
        for line, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError(f"{path}:{line}: not valid UTF-8: {exc.reason}")
    return ParseError(f"{path}: not valid UTF-8")


def _find_row(path: str, row: int) -> tuple[str, list[str]]:
    """``path:line`` of data row ``row`` and its raw fields, read from the file again.

    The line is the one the row ends on.  Only error messages need it, so
    the loaders keep no line per row and look up the faulting row alone.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        fields = next(islice(filter(None, reader), row + 1, None))  # after the header
        return f"{path}:{reader.line_num}", fields


def _first_fault(checks: Sequence[np.ndarray]) -> tuple[int, int] | None:
    """(row, check) of the first failed check, or None when all pass.

    Each check is a boolean mask of failing rows, the field count first.
    Rows are taken in file order and, within a row, checks in the order
    given.  A mask needs to be exact only up to the first failing row,
    since the rows before it are valid.
    """
    failed = np.stack(checks, axis=1).ravel()  # row-major: row by row
    if not failed.any():
        return None
    return divmod(int(np.argmax(failed)), len(checks))


def _check_filled(path: str, columns: dict[str, list[str]]) -> None:
    """Reject the first row that leaves one of ``columns`` empty."""
    first_empty = {name: col.index("") for name, col in columns.items() if "" in col}
    if first_empty:
        name = min(first_empty, key=first_empty.__getitem__)  # ties: first column
        raise ValidationError(f"{_find_row(path, first_empty[name])[0]}: empty {name}")


def _load_respondents(path: str) -> tuple[dict[str, int], dict[str, np.ndarray]]:
    """Respondent index by id in file order, and one attribute array per column."""
    header, fields, ragged = _read_table(path)
    if header[0] != "respondent_id":
        raise ParseError(f"{path}: first column must be respondent_id, got {header!r}")
    counts = Counter(header)
    repeated = [name for name, count in counts.items() if count > 1]
    if repeated:
        raise ParseError(
            f"{path}: column {repeated[0]!r} appears {counts[repeated[0]]} times "
            "in the header"
        )
    width = len(header)
    ids = fields[::width]
    n = len(ids)
    index = {rid: i for i, rid in enumerate(dict.fromkeys(ids))}
    # ids are numbered in first-appearance order, so while rows are unique
    # each row's number is its own index; the first repeat breaks that
    repeats = np.fromiter(map(index.__getitem__, ids), np.intp, n) != np.arange(n)
    fault = _first_fault((ragged, repeats))
    if fault is not None:
        row, check = fault
        where, raw = _find_row(path, row)
        if check == 0:
            raise ParseError(f"{where}: expected {width} fields, got {len(raw)}")
        raise ValidationError(f"{where}: duplicate respondent id {ids[row]!r}")
    _check_filled(path, {"respondent_id": ids})
    table = np.array(fields, dtype=object).reshape(n, width)
    table.flags.writeable = False
    return index, {name: table[:, i] for i, name in enumerate(header[1:], start=1)}


def _load_responses(
    path: str, respondents: dict[str, int]
) -> tuple[tuple[SurveyQuestion, ...], np.ndarray]:
    """Questions in first-appearance order and the ``(rows, 4)`` response codes."""
    header, fields, ragged = _read_table(path)
    if tuple(header) != RESPONSES_HEADER:
        raise ParseError(
            f"{path}: header must be {','.join(RESPONSES_HEADER)}, got {','.join(header)}"
        )
    rids, qids, labels, pct_texts = (fields[i::len(header)] for i in range(len(header)))
    n = len(rids)

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
        (ragged, bins == _NOT_AN_INTEGER, bins == _OFF_GRID, people < 0, repeated_pair)
    )
    if fault is not None:
        row, check = fault
        where, raw = _find_row(path, row)
        if check == 0:
            raise ParseError(f"{where}: expected {len(header)} fields, got {len(raw)}")
        if check == 1:
            raise ParseError(
                f"{where}: prediction_pct {pct_texts[row]!r} is not an integer"
            )
        if check == 2:
            raise ValidationError(
                f"{where}: prediction_pct must be one of 0,{_PCT_STEP},...,100, "
                f"got {int(pct_texts[row])}"
            )
        if check == 3:
            raise ValidationError(f"{where}: unknown respondent {rids[row]!r}")
        raise ValidationError(
            f"{where}: duplicate answer by {rids[row]!r} to {qids[row]!r}"
        )
    _check_filled(path, {"question_id": qids, "choice": labels})

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
class GroupReport:
    """One group's full-sample numbers for a question; ``baseline`` is None
    for a question with more than two options."""

    respondents: int
    variety: float
    baseline: float | None


@dataclass(frozen=True)
class QuestionReport:
    """Per-question metrics, one :class:`GroupReport` per filter in order;
    ``comparison`` holds the outcome of an equalized two-group comparison."""

    question_id: str
    metric_name: str
    groups: tuple[GroupReport, ...]
    comparison: GroupComparison | None = None

    @property
    def resampled_side(self) -> str | None:
        """The larger of two groups, "a" or "b" ("b" on a tie): the one whose
        table entry is a subsample mean with an error bar."""
        if self.comparison is None:
            return None
        a, b = self.groups
        return "a" if a.respondents > b.respondents else "b"


_SIDES = ("a", "b")
_GROUP_FIELDS = ("respondents", "variety", "baseline")
_COMPARISON_COLUMNS = (
    "resampled_side", "resampled_mean", "resampled_std", "trials", "subsample_size"
)
# by group count: the table's value and baseline column widths and titles
_TABLE_LAYOUT = {
    1: (10, 10, ("value",), ("baseline",)),
    2: (16, 9, ("group A", "group B"), ("base A", "base B")),
}


@dataclass(frozen=True)
class AnalysisReport:
    """The rows of one :func:`analyze` run over ``n_groups`` (1 or 2) filters."""

    rows: tuple[QuestionReport, ...]
    n_groups: int

    def to_json_dict(self) -> dict[str, Any]:
        out = []
        for r in self.rows:
            row: dict[str, Any] = {"question_id": r.question_id, "metric": r.metric_name}
            for side, g in zip(_SIDES, r.groups):
                row |= {f"{name}_{side}": value for name, value in vars(g).items()}
            if r.comparison is not None:
                row.update(resampled_side=r.resampled_side, comparison=r.comparison.to_json_dict())
            out.append(row)
        return {"questions": out}

    def to_csv(self) -> str:
        """CSV text; reals carry 6 significant digits, ids are quoted as needed.

        Group columns are unsuffixed for one group; two groups suffix them
        ``_a``/``_b`` and add the comparison's columns.
        """
        two_group = self.n_groups == 2
        suffixes = ("_a", "_b") if two_group else ("",)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        # with a "\n" terminator csv leaves a bare "\r" unquoted; quote that row whole
        quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow((
            "question_id", "metric", *(f"{name}{s}" for name in _GROUP_FIELDS for s in suffixes),
            *(_COMPARISON_COLUMNS if two_group else ()),
        ))
        for r in self.rows:
            cells = [r.question_id, r.metric_name,
                     *(getattr(g, name) for name in _GROUP_FIELDS for g in r.groups)]
            if (cmp := r.comparison) is not None:
                cells += (r.resampled_side, cmp.group_b_mean, cmp.group_b_std,
                          cmp.trials, cmp.subsample_size)
            (quoted if "\r" in r.question_id else writer).writerow(map(_csv_cell, cells))
        return buf.getvalue()

    def to_table(self) -> str:
        """Human-readable table; metric values are scaled by 100.

        With two groups the larger group's entry is a subsample mean with a
        std; the smaller group's entry is its plain full-sample value.
        """
        width, base_width, titles, base_titles = _TABLE_LAYOUT[self.n_groups]

        def line(question: str, metric: str, values: Sequence[str], bases: Sequence[str]) -> str:
            return (f"{question:<14}{metric:<10}" + "".join(f"{v:>{width}}" for v in values)
                    + "".join(f"{b:>{base_width}}" for b in bases) + "\n")

        lines = [line("question", "metric", titles, base_titles)]
        for r in self.rows:
            cmp = r.comparison
            values = [
                f"{100 * cmp.group_b_mean:.1f}±{100 * cmp.group_b_std:.1f}"
                if side == r.resampled_side else f"{100 * g.variety:.1f}"
                for side, g in zip(_SIDES, r.groups)
            ]
            bases = ["" if g.baseline is None else f"{100 * g.baseline:.1f}" for g in r.groups]
            lines.append(line(r.question_id, r.metric_name + " x100", values, bases))
        return "".join(lines)


def _csv_cell(value: Any) -> Any:
    """A real with 6 significant digits, None as an empty cell, others as they are."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return "" if value is None else value


def _group_report(samples: SampleSet, kind: DivergenceKind) -> GroupReport:
    """A group's respondent count, variety and, for two choices, baseline."""
    joint = empirical_joint(samples)
    variety = f_variety(joint, kind)
    return GroupReport(len(samples), variety, baseline(joint) if joint.n_choices == 2 else None)


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
    filters = (filter_a,) if filter_b is None else (filter_a, filter_b)
    rows = []
    for qid in question_ids:
        samples = [extract_samples(dataset, qid, f) for f in filters]
        comparison = None
        if filter_b is not None:
            comparison = compare_groups_equalized(
                *samples, kind, trials=trials, stream=stream.spawn("q", qid)
            )
        groups = tuple(_group_report(s, kind) for s in samples)
        rows.append(QuestionReport(qid, kind.name, groups, comparison))
    return AnalysisReport(tuple(rows), len(filters))
