"""Ingestion, validation, aggregation and synthesis of benchmark measurement tables.

The raw input is a long-form table of per-subset error rates: each dataset is
split in two halves (subsets 1 and 2), an algorithm is trained on one half and
tested on the other, optionally recording the inner cross-validation estimate
of the error at the selected hyperparameters.  Timing tables follow the same
long-form layout with wall-clock measurements.

A table is held as a dense cube indexed by (dataset, algorithm, subset):
datasets and algorithms in sorted name order, subset 1 or 2 at index 0 or 1.
Each value column of the record type (``test_error`` and ``cv_error``, or the
two times and ``n_hyper_combos``) is one cube in ``cubes``; ``present`` marks
the cells that hold a record and ``order`` gives each cell's position in the
input (-1 where absent).  A float cube is NaN where its value is absent: in
a cell without a record, and in ``cv_error`` where no CV estimate was
recorded.  Every analysis of the table is an array operation on these cubes.
The records themselves are built, in input order, only when asked for.

Ingestion reads the source in one ``csv.reader`` pass, converts each CSV
column once and states every rule once, as a mask over the rows built from
whole columns; a valid table is never walked row by row.  The first row with
a mask set, and the first rule set in that row, give the error, so it names
the row, its file line and the rule it broke, as a row-at-a-time parser
would.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from functools import reduce
from itertools import repeat
from operator import iadd
from typing import Mapping, Optional

import numpy as np

from .errors import InputError
from .render import csv_table

INT64_MAX = int(np.iinfo(np.int64).max)  # the largest n_hyper_combos a timing cube holds


@dataclass(frozen=True)
class ErrorRecord:
    """One train-on-one-half, test-on-the-other measurement."""

    dataset: str
    algorithm: str
    subset: int  # 1 or 2: the training half
    test_error: float
    cv_error: Optional[float] = None

    def __post_init__(self):
        if self.subset not in (1, 2):
            raise InputError(f"unknown subset value: {self.subset!r}")
        if not 0.0 <= self.test_error <= 1.0:
            raise InputError(f"test_error outside [0,1]: {self.test_error}")
        if self.cv_error is not None and not 0.0 <= self.cv_error <= 1.0:
            raise InputError(f"cv_error outside [0,1]: {self.cv_error}")


@dataclass(frozen=True)
class TimingRecord:
    """Wall-clock cost of one (dataset, algorithm, subset) run."""

    dataset: str
    algorithm: str
    subset: int
    train_test_seconds: float
    hyper_search_seconds: float
    n_hyper_combos: int

    def __post_init__(self):
        if self.subset not in (1, 2):
            raise InputError(f"unknown subset value: {self.subset!r}")
        for name in ("train_test_seconds", "hyper_search_seconds"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} not finite: {getattr(self, name)}")
        if self.train_test_seconds < 0 or self.hyper_search_seconds < 0:
            raise InputError("negative time")
        if self.n_hyper_combos < 1:
            raise InputError(f"n_hyper_combos must be >= 1, got {self.n_hyper_combos}")
        if self.n_hyper_combos > INT64_MAX:
            raise InputError(f"n_hyper_combos must be <= {INT64_MAX}, got {self.n_hyper_combos}")


# a table's CSV header is its record's fields
ERROR_HEADER = [f.name for f in fields(ErrorRecord)]
TIMING_HEADER = [f.name for f in fields(TimingRecord)]


class RowError(InputError):
    """A rule broken by row ``row`` (an index into the rows given) of a
    table; for a repeated key, ``first`` is the row that holds the key first."""

    def __init__(self, row: int, rule: str, first: Optional[int] = None):
        self.row, self.rule, self.first = row, rule, first
        super().__init__(self.naming("rows[{}]".format))

    def naming(self, place) -> str:
        """The message, each row named by ``place(row)``."""
        seen = "" if self.first is None else f" (first seen at {place(self.first)})"
        return f"{place(self.row)}: {self.rule}{seen}"


def _column(kind, texts: list, fill) -> tuple:
    """The array of ``kind`` of each text, ``fill`` where ``kind`` rejects the
    text, and the mask of the texts it rejects.  ``kind`` runs over the whole
    column, and one text at a time only where that raises, or where an int
    is past int64's range; an int column is then an array of objects, which
    holds every int exactly."""
    try:
        return np.fromiter(map(kind, texts), kind, len(texts)), np.zeros(len(texts), bool)
    except (ValueError, OverflowError):
        values, bad = _each(kind, texts, fill)
        return np.array(values, float if kind is float else object), bad


def _each(kind, texts: list, fill) -> tuple:
    values, bad = [], np.zeros(len(texts), bool)
    for n, text in enumerate(texts):
        try:
            values.append(kind(text))  # float and int ignore surrounding whitespace
        except ValueError:
            values.append(fill)
            bad[n] = True
    return values, bad


def _malformed(column: str, texts: list):
    return lambda r: f"malformed {column} value {texts[r].strip()!r}"


def _codes(names: list) -> tuple:
    """The sorted distinct stripped names, each mapped to its position, and
    the position of each name's label; ``str.strip`` runs once per distinct
    name, not once per row."""
    distinct = set(names)
    position = {name: n for n, name in enumerate(sorted(set(map(str.strip, distinct))))}
    code = {name: position[name.strip()] for name in distinct}
    return position, np.fromiter(map(code.__getitem__, names), np.intp, len(names))


_SUBSET_INDEX = {"1": 0, "2": 1}


class _RecordTable:
    """Immutable collection of records keyed by (dataset, algorithm, subset).

    Held as the cube the module docstring describes; ``records`` lists the
    records in input order.
    """

    record: type
    headers: tuple  # accepted CSV headers; the first, the record's fields, is the one error messages name

    def __init__(self, rows: list, width: int):
        """The table of ``rows``, lists of ``width`` CSV fields; ``width`` is
        the length of one of ``headers``, else :class:`ValueError`.

        Each rule is a mask over the rows, in the order a row-at-a-time
        parser checks them: the field count, an empty identifier, the subset,
        then the table's own rules, and last, only where no row breaks one, a
        repeated key.  The first row that breaks a rule raises a
        :class:`RowError` naming it and the first rule it breaks.
        """
        widths = [len(header) for header in self.headers]
        if width not in widths:
            raise ValueError(f"{type(self).__name__} width must be one of {widths}, got {width}")
        counts = np.fromiter(map(len, rows), np.intp, len(rows))
        if (counts != width).any():
            # pad or cut the rows of another width for the column split alone: their
            # field count is their first error, and "0" passes every conversion
            rows = [row if len(row) == width else (list(row) + ["0"] * width)[:width] for row in rows]
        fields = reduce(iadd, rows, [])  # one flat list of every field
        columns = [fields[n::width] for n in range(width)]
        del fields
        datasets, d = _codes(columns[0])
        algorithms, a = _codes(columns[1])
        subsets = list(map(str.strip, columns[2]))
        s = np.fromiter(map(_SUBSET_INDEX.get, subsets, repeat(2)), np.intp, len(subsets))  # 2: neither
        values, rules = self._convert(columns)
        rules = [
            (counts != width, lambda r: f"expected {width} fields, got {counts[r]}"),
            ((d == datasets.get("", -1)) | (a == algorithms.get("", -1)), lambda r: "empty identifier"),
            (s == 2, lambda r: f"unknown subset value {subsets[r]!r}"),
            *rules,
        ]
        broken = reduce(np.logical_or, (mask for mask, _ in rules))
        if broken.any():
            r = int(broken.argmax())
            raise RowError(r, next(rule(r) for mask, rule in rules if mask[r]))
        self.datasets, self.algorithms = tuple(datasets), tuple(algorithms)
        shape = (len(datasets), len(algorithms), 2)
        cell = np.ravel_multi_index((d, a, s), shape)
        order = np.full(math.prod(shape), -1, dtype=np.intp)
        order[cell] = np.arange(len(cell))
        self.order = order.reshape(shape)
        self.present = self.order >= 0
        if np.count_nonzero(self.present) != len(cell):  # two rows share a cell
            repeated = np.ones(len(cell), bool)
            repeated[np.unique(cell, return_index=True)[1]] = False  # each cell's first row
            r = int(repeated.argmax())
            key = (self.datasets[d[r]], self.algorithms[a[r]], int(s[r]) + 1)
            raise RowError(r, f"duplicate key {key}", int((cell == cell[r]).argmax()))
        self.cubes = {}
        for name, column in zip(self.headers[0][3:], values):  # after dataset, algorithm and subset
            cube = np.zeros(order.shape, dtype=column.dtype)
            if column.dtype.kind == "f":
                cube.fill(np.nan)
            cube[cell] = column
            self.cubes[name] = cube.reshape(shape)
        self._records = None

    @property
    def records(self) -> tuple:
        if self._records is None:
            # the present cells sorted by input position
            cells = np.argsort(self.order, axis=None)[self.order.size - len(self) :]
            d, a, s = np.unravel_index(cells, self.order.shape)
            values = []
            for cube in self.cubes.values():
                column = cube[d, a, s]
                if column.dtype.kind == "f":  # NaN in a present cell: no value
                    column = np.where(np.isnan(column), None, column)
                values.append(column.tolist())
            self._records = tuple(
                map(
                    self.record,
                    [self.datasets[i] for i in d.tolist()],
                    [self.algorithms[i] for i in a.tolist()],
                    (s + 1).tolist(),
                    *values,
                )
            )
        return self._records

    def __len__(self) -> int:
        return int(self.present.sum())

    def __iter__(self):
        return iter(self.records)


class ErrorTable(_RecordTable):
    """All parsed :class:`ErrorRecord` rows of one benchmark run."""

    record = ErrorRecord
    headers = (ERROR_HEADER, ERROR_HEADER[:4])

    @staticmethod
    def _convert(columns: list) -> tuple:
        test, bad_test = _column(float, columns[3], math.nan)
        cv_text = np.array(list(map(str.strip, columns[4])) if len(columns) > 4 else [""] * len(test), object)
        blank = cv_text == ""  # an empty cv_error field: no CV estimate
        cv, bad_cv = _column(float, np.where(blank, "nan", cv_text), math.nan)
        # a NaN compares False, so it lies outside [0,1]
        return [test, cv], [
            (bad_test, _malformed("test_error", columns[3])),
            (bad_cv, _malformed("cv_error", cv_text)),
            (~((test >= 0) & (test <= 1)), lambda r: f"test_error outside [0,1]: {float(test[r])}"),
            (~((cv >= 0) & (cv <= 1) | blank), lambda r: f"cv_error outside [0,1]: {float(cv[r])}"),
        ]


class TimingTable(_RecordTable):
    """All parsed :class:`TimingRecord` rows of one benchmark run."""

    record = TimingRecord
    headers = (TIMING_HEADER,)

    @staticmethod
    def _convert(columns: list) -> tuple:
        train, bad_train = _column(float, columns[3], math.nan)
        search, bad_search = _column(float, columns[4], math.nan)
        combos, bad_combos = _column(int, columns[5], 1)  # int64, or object past its range
        return [train, search, combos], [
            (bad_train, _malformed("train_test_seconds", columns[3])),
            (bad_search, _malformed("hyper_search_seconds", columns[4])),
            (bad_combos, _malformed("n_hyper_combos", columns[5])),
            (~np.isfinite(train), lambda r: f"train_test_seconds not finite: {float(train[r])}"),
            (~np.isfinite(search), lambda r: f"hyper_search_seconds not finite: {float(search[r])}"),
            ((train < 0) | (search < 0), lambda r: "negative time"),
            (combos < 1, lambda r: f"n_hyper_combos must be >= 1, got {combos[r]}"),
            (combos > INT64_MAX, lambda r: f"n_hyper_combos must be <= {INT64_MAX}, got {combos[r]}"),
        ]


@dataclass
class AggregatedMatrix:
    """Dataset x algorithm matrix of values with an explicit presence mask.

    For error data the value is the mean of the two per-subset test errors;
    a cell is present iff both subset records exist.  Missing cells are NaN
    with ``mask`` False.
    """

    algorithms: tuple
    datasets: tuple
    values: np.ndarray  # shape (n_datasets, n_algorithms), NaN where missing
    mask: np.ndarray  # bool, same shape

    def __post_init__(self):
        self.algorithms = tuple(self.algorithms)
        self.datasets = tuple(self.datasets)
        self.values = np.asarray(self.values, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.values.shape != (len(self.datasets), len(self.algorithms)):
            raise ValueError("values shape does not match labels")
        if self.mask.shape != self.values.shape:
            raise ValueError("mask shape does not match values")

    @property
    def n_datasets(self) -> int:
        return len(self.datasets)

    @property
    def n_algorithms(self) -> int:
        return len(self.algorithms)

    def present_values(self) -> np.ndarray:
        return self.values[self.mask]


def as_text(source) -> str:
    """The text of ``source``, a str, bytes, or a text or byte stream read
    whole, a leading byte-order mark dropped; bytes are UTF-8, and a byte that
    is not raises an :class:`InputError` naming its line, counted at "\n".
    A text stream with a ``buffer`` (a file from ``open``, ``sys.stdin``) is
    read as the bytes under it, so its own decoding and newline translation
    never apply."""
    try:
        if not isinstance(source, (str, bytes)):
            source = getattr(source, "buffer", source).read()
        if isinstance(source, bytes):
            source = source.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise InputError(f"line {line}: byte 0x{exc.object[exc.start]:02x} is not valid UTF-8") from None
    return source.removeprefix("\ufeff")


def _records(lines) -> tuple:
    """The csv reader's nonblank records of ``lines``, the file line each
    ends on, and the error for a record the reader rejects, naming the line
    it starts on (None if it rejects none; the records then stop before it).

    A '#' line (e.g. the synth-spec echo) is a comment where a record starts,
    not inside a quoted field; the reader reads it as a blank line, so its
    ``line_num`` stays the file line.
    """
    rows, ends = [], []
    start = 0  # the line_num at which the next record starts

    def feed():  # the reader asks for each line once it has read line_num lines
        for line in lines:
            yield "\n" if "#" in line and reader.line_num == start and line.lstrip().startswith("#") else line

    reader = csv.reader(feed())
    try:
        for row in reader:
            start = reader.line_num
            if len(row) > 1 or row and row[0].strip():
                rows.append(row)
                ends.append(start)
    except csv.Error as exc:
        if "new-line character" in str(exc):  # a bare "\r": csv's advice on a file mode fits no input here
            exc = 'a carriage return outside quotes ends no line; lines end at "\\n" (CRLF is fine)'
        return rows, ends, InputError(f"line {start + 1}: {exc}")
    return rows, ends, None


def _ingest(source, table: type):
    """The one parser of long-form tables; every error names its file line.

    The first nonblank record must equal one of ``table.headers``.  Each row
    starts with dataset, algorithm and subset; the rest are ``table``'s value
    columns.  The rows before a record the reader rejects are checked first,
    as a row-at-a-time parser would meet them.
    """
    rows, ends, reader_error = _records(io.StringIO(as_text(source)))  # lines end at "\n" alone
    if not rows:
        raise reader_error or InputError("empty input: missing header")
    header = [h.strip() for h in rows[0]]
    if header not in table.headers:
        raise InputError(f"unexpected header {header!r}, want {table.headers[0]!r}")
    try:
        parsed = table(rows[1:], len(header))
    except RowError as exc:
        raise InputError(exc.naming(lambda r: f"line {ends[r + 1]}")) from None
    if reader_error is not None:
        raise reader_error
    return parsed


def ingest_error_table(source) -> ErrorTable:
    """Parse a long-form error CSV into an :class:`ErrorTable`.

    Expected header: ``dataset,algorithm,subset,test_error,cv_error``; the
    cv_error field may be empty.  The cv_error column itself may be absent
    (degraded mode: CV-based thresholds are then unavailable).
    """
    return _ingest(source, ErrorTable)


def ingest_timing_table(source) -> TimingTable:
    """Parse a long-form timing CSV into a :class:`TimingTable`."""
    return _ingest(source, TimingTable)


def aggregate_errors(table: ErrorTable) -> AggregatedMatrix:
    """Average the two per-subset test errors into one value per cell.

    A cell is present only when both subset records exist; otherwise it is
    NaN with a False mask.
    """
    test = table.cubes["test_error"]  # NaN where absent, so the mean is too
    values = (test[..., 0] + test[..., 1]) / 2.0
    return AggregatedMatrix(table.algorithms, table.datasets, values, table.present.all(axis=2))


def matrix_from_timings(table: TimingTable, metric: str) -> AggregatedMatrix:
    """Build a subjects x algorithms matrix of timings.

    Subjects are (dataset, subset) pairs, labeled ``dataset::subset``: the
    two halves of a dataset are separate subjects for the timing analysis.
    ``metric`` is ``one_train_test`` or ``per_hyper``.
    """
    if metric not in ("one_train_test", "per_hyper"):
        raise InputError(f"unknown timing metric: {metric!r}")
    present = table.present
    if metric == "one_train_test":
        seconds = table.cubes["train_test_seconds"]
    else:
        combos = np.where(present, table.cubes["n_hyper_combos"], 1)
        seconds = table.cubes["hyper_search_seconds"] / combos
    # subjects with any record, sorted by (dataset, subset)
    d, s = np.nonzero(present.any(axis=1))
    labels = tuple(f"{table.datasets[i]}::{j + 1}" for i, j in zip(d.tolist(), s.tolist()))
    return AggregatedMatrix(table.algorithms, labels, seconds[d, :, s], present[d, :, s])


@dataclass
class SynthSpec:
    """Generative recipe for a synthetic error table.

    Cell means follow the additive model grand_mean + algorithm effect +
    dataset effect; per-subset test errors add normal noise of scale
    ``noise_sd`` and are clamped to [0,1].  The CV estimate adds independent
    normal noise of scale ``cv_noise_sd`` on top of the test error.
    """

    beta: float
    alpha: Mapping[str, float]  # algorithm -> effect
    delta: Mapping[str, float]  # dataset -> effect
    noise_sd: float = 0.0
    cv_noise_sd: float = 0.0

    def __post_init__(self):
        numbers = {"beta": self.beta, "noise_sd": self.noise_sd, "cv_noise_sd": self.cv_noise_sd}
        for kind, effects in (("alpha", self.alpha), ("delta", self.delta)):
            for name, effect in effects.items():
                if not name or name != name.strip():  # a table's names are stripped fields
                    raise InputError(f"{kind} name {name!r} is empty or has whitespace around it")
                numbers[f"{kind}[{name!r}]"] = effect
        for key, value in numbers.items():
            if not math.isfinite(value):
                raise InputError(f"{key} must be finite, got {value}")
        if self.noise_sd < 0:
            raise InputError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if self.cv_noise_sd < 0:
            raise InputError(f"cv_noise_sd must be >= 0, got {self.cv_noise_sd}")
        if not self.alpha or not self.delta:
            raise InputError("alpha and delta must be nonempty")
        for pick in (min, max):  # float addition is monotone: these bound every cell mean
            mean = self.beta + pick(self.alpha.values()) + pick(self.delta.values())
            if not math.isfinite(mean):
                raise InputError(f"beta + alpha + delta must be finite, got {mean}")

    @classmethod
    def from_json(cls, text: str) -> "SynthSpec":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed synth spec JSON: {exc}") from None
        try:
            return cls(
                beta=float(obj["beta"]),
                alpha={str(k): float(v) for k, v in obj["alpha"].items()},
                delta={str(k): float(v) for k, v in obj["delta"].items()},
                noise_sd=float(obj.get("noise_sd", 0.0)),
                cv_noise_sd=float(obj.get("cv_noise_sd", 0.0)),
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise InputError(f"invalid synth spec: {exc}") from None


def generate_synthetic(spec: SynthSpec, seed: int) -> ErrorTable:
    """Draw a synthetic error table from the additive model; deterministic per seed."""
    rng = np.random.default_rng(seed)
    rows = []
    algorithms = sorted(spec.alpha)
    for dataset in sorted(spec.delta):
        for algorithm in algorithms:
            mean = spec.beta + spec.alpha[algorithm] + spec.delta[dataset]
            for subset in ("1", "2"):
                noise = rng.normal(0.0, spec.noise_sd) if spec.noise_sd > 0 else 0.0
                test_error = float(np.clip(mean + noise, 0.0, 1.0))
                cv_noise = rng.normal(0.0, spec.cv_noise_sd) if spec.cv_noise_sd > 0 else 0.0
                cv_error = float(np.clip(test_error + cv_noise, 0.0, 1.0))
                # repr reads back as the same float
                rows.append([dataset, algorithm, subset, repr(test_error), repr(cv_error)])
    return ErrorTable(rows, len(ERROR_HEADER))


def error_table_to_csv(table: ErrorTable, comment: Optional[str] = None) -> str:
    """Render an error table back to its CSV wire format, ``comment``'s lines as '#' lines first."""
    rows = [["" if value is None else value for value in vars(r).values()] for r in table]
    return "".join(f"# {line}\n" for line in (comment or "").splitlines()) + csv_table(ERROR_HEADER, rows)
