"""Survey-file ingestion and group-comparison analysis.

Data arrives as two CSV files: one row per (respondent, question) answer
and one row per respondent with side-question attributes.  Answers pair a
choice label with a prediction percent on the 0/10/.../100 grid.  The
analyzer counts a question's filtered answers into a (choice, prediction
bin) count table, scores it with a variety metric and the choice-unbalance
baseline, and compares two respondent groups at equal size via
without-replacement subsampling.
"""

from __future__ import annotations

import codecs
import csv
import io
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Any, Mapping, Sequence

import numpy as np

from .distributions import _PCT_STEP, _count_table
from .divergence import DivergenceKind, TVD, baseline
from .errors import (
    ConfigError,
    EmptyGroup,
    ParseError,
    UnknownQuestion,
    ValidationError,
)
from .estimation import (
    DEFAULT_SUBSAMPLE_TRIALS,
    GroupComparison,
    _group_varieties,
    _trial_count,
    empirical_joint,
)
from .sampling import RandomStream

RESPONSES_HEADER = ("respondent_id", "question_id", "choice", "prediction_pct")

# Bin codes of prediction_pct texts that are not an integer or off the grid.
_NOT_AN_INTEGER = -1
_OFF_GRID = -2

# A factorized column: its distinct texts and each row's index into them.
_Column = tuple[list[str], np.ndarray]

# What a plain responses file holds: printable ASCII but space and '"', and "\n"
_PLAIN_BYTES = bytes(range(0x21, 0x7F)).replace(b'"', b"") + b"\n"
_WORD = 8  # the longest field of a plain file, in bytes: one uint64
# _KEEP_BYTES[k] keeps the first k bytes of a big-endian 8-byte word
_KEEP_BYTES = np.array(
    [(1 << 64) - (1 << (64 - 8 * k)) for k in range(_WORD + 1)], dtype=np.uint64
)


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
    read-only ``(rows, 4)`` intp array with columns respondent index,
    question index, choice index into ``options`` and prediction bin.  Its
    rows are grouped by question in first-appearance order, file order
    within a question.
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


def _check_filled(path: str, columns: dict[str, _Column]) -> None:
    """Reject the first row that leaves one of ``columns`` empty."""
    first_empty = {
        name: int(np.argmax(codes == values.index("")))
        for name, (values, codes) in columns.items() if "" in values
    }
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
    codes = np.fromiter(map(index.__getitem__, ids), np.intp, n)
    # ids are numbered in first-appearance order, so while rows are unique
    # each row's number is its own index; the first repeat breaks that
    fault = _first_fault((ragged, codes != np.arange(n)))
    if fault is not None:
        row, check = fault
        where, raw = _find_row(path, row)
        if check == 0:
            raise ParseError(f"{where}: expected {width} fields, got {len(raw)}")
        raise ValidationError(f"{where}: duplicate respondent id {ids[row]!r}")
    _check_filled(path, {"respondent_id": (list(index), codes)})
    table = np.array(fields, dtype=object).reshape(n, width)
    table.flags.writeable = False
    return index, {name: table[:, i] for i, name in enumerate(header[1:], start=1)}


def _factorize(texts: Sequence[str]) -> _Column:
    """A column as its sorted distinct texts and each row's index into them."""
    values = sorted(set(texts))
    code = {text: i for i, text in enumerate(values)}
    return values, np.fromiter(map(code.__getitem__, texts), np.intp, len(texts))


def _plain_columns(path: str) -> list[_Column] | None:
    """The four columns of a plain responses file, factorized; None for any other file.

    A plain file is the exact header line, then lines of four fields of at
    most 8 bytes, every byte printable ASCII other than space and ``"``, or
    a comma or newline.  The csv module reads it as the same fields, strip
    leaves them as they are, and ASCII byte order is ``sorted`` order, so
    the columns equal :func:`_factorize` over :func:`_read_table`'s fields.
    Each field is read as one big-endian ``uint64`` of its bytes, zero-padded.
    """
    with open(path, "rb") as fh:
        text = fh.read().removeprefix(codecs.BOM_UTF8)
    if not text.endswith(b"\n"):
        text += b"\n"
    head = ",".join(RESPONSES_HEADER).encode() + b"\n"
    if not text.startswith(head) or text.translate(None, _PLAIN_BYTES):
        return None
    data = np.frombuffer(text[len(head):] + bytes(_WORD), dtype=np.uint8)
    ends = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
    lengths = np.diff(ends, prepend=-1) - 1
    if (len(ends) % 4 or lengths.max(initial=0) > _WORD
            or not (data[ends].reshape(-1, 4) == np.frombuffer(b",,,\n", np.uint8)).all()):
        return None
    # one overlapping 8-byte window per byte of the padded buffer
    words = np.ndarray((len(data) - _WORD + 1,), ">u8", data, 0, (1,))
    fields = (words[ends - lengths] & _KEEP_BYTES[lengths]).reshape(-1, 4)
    columns = []
    for keys in fields.T:
        distinct, codes = np.unique(keys, return_inverse=True)
        texts = [int(key).to_bytes(_WORD, "big").rstrip(b"\0").decode() for key in distinct]
        columns.append((texts, codes))
    return columns


def _response_columns(path: str) -> tuple[list[_Column], np.ndarray]:
    """The responses file's four columns, factorized, and its ragged-row mask."""
    columns = _plain_columns(path)
    if columns is not None:
        return columns, np.zeros(len(columns[0][1]), dtype=bool)
    header, fields, ragged = _read_table(path)
    if tuple(header) != RESPONSES_HEADER:
        raise ParseError(
            f"{path}: header must be {','.join(RESPONSES_HEADER)}, got {','.join(header)}"
        )
    return [_factorize(fields[i::len(header)]) for i in range(len(header))], ragged


def _pct_bin(text: str) -> int:
    """The prediction bin of a prediction_pct text, or a code for its fault.

    The accepted syntax (sign, leading zeros, underscores, non-ASCII
    digits) is Python's ``int``, not numpy's.
    """
    try:
        pct = int(text)
    except ValueError:
        return _NOT_AN_INTEGER
    return pct // _PCT_STEP if 0 <= pct <= 100 and pct % _PCT_STEP == 0 else _OFF_GRID


def _load_responses(
    path: str, respondents: dict[str, int]
) -> tuple[tuple[SurveyQuestion, ...], np.ndarray]:
    """Questions in first-appearance order and the ``(rows, 4)`` response codes,
    grouped by question."""
    columns, ragged = _response_columns(path)
    (rids, rid_codes), (qids, qid_codes), (labels, label_codes), (pcts, pct_codes) = columns
    n = len(rid_codes)
    bins = np.array(list(map(_pct_bin, pcts)), dtype=np.intp)[pct_codes]
    people = np.array([respondents.get(rid, -1) for rid in rids], dtype=np.intp)[rid_codes]
    first_row = np.full(len(qids), n)
    np.minimum.at(first_row, qid_codes, np.arange(n))
    appearance = np.argsort(first_row)  # question codes in first-appearance order
    questions = np.argsort(appearance)[qid_codes]
    # unknown respondents (-1) key below 0, apart from every known pair
    pairs = people * len(qids) + questions
    repeated_pair = np.ones(n, dtype=bool)
    repeated_pair[np.unique(pairs, return_index=True)[1]] = False

    fault = _first_fault(
        (ragged, bins == _NOT_AN_INTEGER, bins == _OFF_GRID, people < 0, repeated_pair)
    )
    if fault is not None:
        row, check = fault
        where, raw = _find_row(path, row)
        if check == 0:
            raise ParseError(
                f"{where}: expected {len(RESPONSES_HEADER)} fields, got {len(raw)}"
            )
        if check == 1:
            raise ParseError(
                f"{where}: prediction_pct {pcts[pct_codes[row]]!r} is not an integer"
            )
        if check == 2:
            raise ValidationError(
                f"{where}: prediction_pct must be one of 0,{_PCT_STEP},...,100, "
                f"got {int(pcts[pct_codes[row]])}"
            )
        if check == 3:
            raise ValidationError(f"{where}: unknown respondent {rids[rid_codes[row]]!r}")
        raise ValidationError(
            f"{where}: duplicate answer by {rids[rid_codes[row]]!r} "
            f"to {qids[qid_codes[row]]!r}"
        )
    _check_filled(path, {"question_id": (qids, qid_codes), "choice": (labels, label_codes)})

    # Label codes rank the labels.  The distinct (question, label code) keys
    # then sort by question, then label: each question's options are one run
    # of them, and a row's choice code is its key's offset within that run.
    keys, key_of_row = np.unique(questions * len(labels) + label_codes, return_inverse=True)
    n_options = np.bincount(keys // len(labels), minlength=len(qids))
    run_start = np.cumsum(n_options) - n_options
    options = [labels[i] for i in keys % len(labels)]
    codes = np.stack((people, questions, key_of_row - run_start[questions], bins), axis=1)
    # a stable sort groups the rows by question and keeps file order within one
    responses = codes.take(np.argsort(questions, kind="stable"), axis=0)
    responses.flags.writeable = False
    return tuple(
        SurveyQuestion(qids[code], tuple(options[start:start + count]))
        for code, start, count in zip(appearance, run_start, n_options)
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
            op = next((op for op in ("!=", " in ", "=") if op in part), None)
            if op is None:
                raise ValidationError(f"filter clause {part!r} has no operator (=, !=, in)")
            attr, _, value = part.partition(op)
            values = (value.strip(),)
            if op == " in ":
                values = tuple(v.strip() for v in value.split("|") if v.strip())
                if not values:
                    raise ValidationError(f"filter clause {part!r} lists no values")
            clauses.append(FilterClause(attr.strip(), op.strip(), values))
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
) -> np.ndarray:
    """``(n_choices, 11)`` count table of one question's answers from the
    filtered respondents: entry (c, b) counts choice ``options[c]`` with
    prediction bin b.

    :func:`load_survey` rejects a second answer to a question, so each
    answer is a distinct respondent, the table's total is the respondent
    count, and group comparisons can subsample answers.
    """
    question = dataset.question(question_id)
    responses = dataset.responses
    q = dataset.questions.index(question)
    rows = responses[slice(*np.searchsorted(responses[:, 1], (q, q + 1)))]
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
    return _count_table(question.n_choices, rows[:, 2], rows[:, 3])


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
# by group count: each table column's title and least width
_TABLE_COLUMNS = {
    1: (("question", 14), ("metric", 10), ("value", 10), ("baseline", 10)),
    2: (("question", 14), ("metric", 10), ("group A", 16), ("group B", 16),
        ("base A", 9), ("base B", 9)),
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
        titles, least_widths = zip(*_TABLE_COLUMNS[self.n_groups])
        cells = [titles]
        for r in self.rows:
            cmp = r.comparison
            values = [
                f"{100 * cmp.group_b_mean:.1f}±{100 * cmp.group_b_std:.1f}"
                if side == r.resampled_side else f"{100 * g.variety:.1f}"
                for side, g in zip(_SIDES, r.groups)
            ]
            bases = ["" if g.baseline is None else f"{100 * g.baseline:.1f}" for g in r.groups]
            cells.append((r.question_id, r.metric_name + " x100", *values, *bases))
        widths = [max(least, 1 + max(len(row[i]) for row in cells))
                  for i, least in enumerate(least_widths)]
        return "".join(
            f"{row[0]:<{widths[0]}}{row[1]:<{widths[1]}}"
            + "".join(f"{cell:>{width}}" for cell, width in zip(row[2:], widths[2:])) + "\n"
            for row in cells
        )


def _csv_cell(value: Any) -> Any:
    """A real with 6 significant digits, None as an empty cell, others as they are."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return "" if value is None else value


def analyze(
    dataset: SurveyDataset,
    question_ids: Sequence[str],
    filter_a: RespondentFilter | None,
    filter_b: RespondentFilter | None = None,
    kinds: Sequence[DivergenceKind] = (TVD,),
    trials: int = DEFAULT_SUBSAMPLE_TRIALS,
    stream: RandomStream | None = None,
) -> AnalysisReport:
    """Score each question for one group, or compare two groups, with every kind.

    With ``filter_b`` present the two groups are compared at equal
    respondent counts (see :func:`compare_groups_equalized`); the error
    bar lands on whichever group is larger for that question.  Rows are
    kind-major, in ``kinds`` order.  A question's subsamples are drawn once,
    from ``stream.spawn("q", question_id)``, and every kind scores them.
    ``trials`` is checked for one group too.
    """
    trials = _trial_count(trials)
    if not kinds:
        raise ConfigError("kinds list is empty")
    if stream is None:
        stream = RandomStream(0)
    filters = (filter_a,) if filter_b is None else (filter_a, filter_b)
    blocks: list[list[QuestionReport]] = [[] for _ in kinds]
    for qid in question_ids:
        tables = np.stack([extract_samples(dataset, qid, f) for f in filters])
        scored = _group_varieties(tables, kinds, trials, stream.spawn("q", qid))
        sizes = [int(t.sum()) for t in tables]
        bases = [baseline(empirical_joint(t)) if t.shape[0] == 2 else None for t in tables]
        for block, kind, (fulls, comparison) in zip(blocks, kinds, scored):
            groups = tuple(map(GroupReport, sizes, fulls.tolist(), bases))
            block.append(QuestionReport(qid, kind.name, groups, comparison))
    return AnalysisReport(tuple(row for block in blocks for row in block), len(filters))
