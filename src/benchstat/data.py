"""Ingestion, validation, aggregation and synthesis of benchmark measurement tables.

The raw input is a long-form table of per-subset error rates: each dataset is
split in two halves (subsets 1 and 2), an algorithm is trained on one half and
tested on the other, optionally recording the inner cross-validation estimate
of the error at the selected hyperparameters.  Timing tables follow the same
long-form layout with wall-clock measurements.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import InputError

ERROR_HEADER = ["dataset", "algorithm", "subset", "test_error", "cv_error"]
TIMING_HEADER = [
    "dataset",
    "algorithm",
    "subset",
    "train_test_seconds",
    "hyper_search_seconds",
    "n_hyper_combos",
]


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
        if self.train_test_seconds < 0 or self.hyper_search_seconds < 0:
            raise InputError("negative time")
        if self.n_hyper_combos < 1:
            raise InputError(f"n_hyper_combos must be >= 1, got {self.n_hyper_combos}")

    @property
    def per_hyper_seconds(self) -> float:
        return self.hyper_search_seconds / self.n_hyper_combos


class _RecordTable:
    """Immutable collection of records keyed by (dataset, algorithm, subset)."""

    def __init__(self, records: Iterable, lines: Optional[list] = None):
        """``lines`` holds each record's input file line, for error messages."""
        self.records = tuple(records)
        self._index = {}
        for n, rec in enumerate(self.records):
            key = (rec.dataset, rec.algorithm, rec.subset)
            if key in self._index:
                if lines is None:
                    raise InputError(f"duplicate key {key}")
                first = next(i for i, r in enumerate(self.records) if r is self._index[key])
                raise InputError(
                    f"line {lines[n]}: duplicate key {key} (first seen at line {lines[first]})"
                )
            self._index[key] = rec
        self.datasets = tuple(sorted({r.dataset for r in self.records}))
        self.algorithms = tuple(sorted({r.algorithm for r in self.records}))

    def get(self, dataset: str, algorithm: str, subset: int):
        return self._index.get((dataset, algorithm, subset))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


class ErrorTable(_RecordTable):
    """All parsed :class:`ErrorRecord` rows of one benchmark run."""


class TimingTable(_RecordTable):
    """All parsed :class:`TimingRecord` rows of one benchmark run."""


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


def _csv_reader(source):
    """A csv reader over ``source`` whose ``line_num`` is the file line."""
    if isinstance(source, (str, bytes)):
        if isinstance(source, bytes):
            source = source.decode("utf-8")
        stream = io.StringIO(source)
    elif isinstance(source, io.TextIOBase):
        stream = source
    else:
        # byte stream
        stream = io.TextIOWrapper(source, encoding="utf-8", newline="")
    # '#' comment lines (e.g. the synth-spec echo) reach the reader as blank
    # lines, which the parser skips, so its line count stays the file's
    return csv.reader("\n" if line.lstrip().startswith("#") else line for line in stream)


def _number(kind, text: str, column: str):
    try:
        return kind(text)  # float and int ignore surrounding whitespace
    except ValueError:
        raise InputError(f"malformed {column} value {text.strip()!r}") from None


def _ingest(source, headers: tuple, values, record, table):
    """The one parser of long-form tables; every error names its file line.

    The first nonblank record must equal one of ``headers``.  Each row starts
    with dataset, algorithm and subset; ``values`` converts the row's
    remaining fields into the rest of ``record``'s arguments, and ``record``
    checks their ranges.
    """
    reader = _csv_reader(source)
    header, records, lines = None, [], []
    for row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if header is None:
            header = [h.strip() for h in row]
            if header not in headers:
                raise InputError(f"unexpected header {header!r}, want {headers[0]!r}")
            continue
        try:
            if len(row) != len(header):
                raise InputError(f"expected {len(header)} fields, got {len(row)}")
            dataset, algorithm, subset = row[0].strip(), row[1].strip(), row[2].strip()
            if not dataset or not algorithm:
                raise InputError("empty identifier")
            if subset not in ("1", "2"):
                raise InputError(f"unknown subset value {subset!r}")
            records.append(record(dataset, algorithm, int(subset), *values(row)))
        except InputError as exc:
            raise InputError(f"line {reader.line_num}: {exc}") from None
        lines.append(reader.line_num)
    if header is None:
        raise InputError("empty input: missing header")
    return table(records, lines)


def _error_values(row: list) -> tuple:
    test_error = _number(float, row[3], "test_error")
    cv = row[4].strip() if len(row) > 4 else ""
    return test_error, _number(float, cv, "cv_error") if cv else None


def _timing_values(row: list) -> tuple:
    return (
        _number(float, row[3], "train_test_seconds"),
        _number(float, row[4], "hyper_search_seconds"),
        _number(int, row[5], "n_hyper_combos"),
    )


def ingest_error_table(source) -> ErrorTable:
    """Parse a long-form error CSV into an :class:`ErrorTable`.

    Expected header: ``dataset,algorithm,subset,test_error,cv_error``; the
    cv_error field may be empty.  The cv_error column itself may be absent
    (degraded mode: CV-based thresholds are then unavailable).
    """
    return _ingest(
        source, (ERROR_HEADER, ERROR_HEADER[:4]), _error_values, ErrorRecord, ErrorTable
    )


def ingest_timing_table(source) -> TimingTable:
    """Parse a long-form timing CSV into a :class:`TimingTable`."""
    return _ingest(source, (TIMING_HEADER,), _timing_values, TimingRecord, TimingTable)


def aggregate_errors(table: ErrorTable) -> AggregatedMatrix:
    """Average the two per-subset test errors into one value per cell.

    A cell is present only when both subset records exist; otherwise it is
    NaN with a False mask.
    """
    datasets = table.datasets
    algorithms = table.algorithms
    values = np.full((len(datasets), len(algorithms)), np.nan)
    mask = np.zeros_like(values, dtype=bool)
    for di, dataset in enumerate(datasets):
        for ai, algorithm in enumerate(algorithms):
            r1 = table.get(dataset, algorithm, 1)
            r2 = table.get(dataset, algorithm, 2)
            if r1 is not None and r2 is not None:
                values[di, ai] = (r1.test_error + r2.test_error) / 2.0
                mask[di, ai] = True
    return AggregatedMatrix(algorithms, datasets, values, mask)


def matrix_from_timings(table: TimingTable, metric: str) -> AggregatedMatrix:
    """Build a subjects x algorithms matrix of timings.

    Subjects are (dataset, subset) pairs, labeled ``dataset::subset``: the
    two halves of a dataset are separate subjects for the timing analysis.
    ``metric`` is ``one_train_test`` or ``per_hyper``.
    """
    if metric not in ("one_train_test", "per_hyper"):
        raise InputError(f"unknown timing metric: {metric!r}")
    subjects = tuple(
        sorted({(r.dataset, r.subset) for r in table.records})
    )
    labels = tuple(f"{d}::{s}" for d, s in subjects)
    algorithms = table.algorithms
    values = np.full((len(subjects), len(algorithms)), np.nan)
    mask = np.zeros_like(values, dtype=bool)
    subject_index = {s: i for i, s in enumerate(subjects)}
    for rec in table.records:
        si = subject_index[(rec.dataset, rec.subset)]
        ai = algorithms.index(rec.algorithm)
        if metric == "one_train_test":
            values[si, ai] = rec.train_test_seconds
        else:
            values[si, ai] = rec.per_hyper_seconds
        mask[si, ai] = True
    return AggregatedMatrix(algorithms, labels, values, mask)


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
        if self.noise_sd < 0:
            raise InputError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if self.cv_noise_sd < 0:
            raise InputError(f"cv_noise_sd must be >= 0, got {self.cv_noise_sd}")
        if not self.alpha or not self.delta:
            raise InputError("alpha and delta must be nonempty")

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
    records = []
    algorithms = sorted(spec.alpha)
    datasets = sorted(spec.delta)
    for dataset in datasets:
        for algorithm in algorithms:
            mean = spec.beta + spec.alpha[algorithm] + spec.delta[dataset]
            for subset in (1, 2):
                noise = rng.normal(0.0, spec.noise_sd) if spec.noise_sd > 0 else 0.0
                test_error = float(np.clip(mean + noise, 0.0, 1.0))
                cv_noise = (
                    rng.normal(0.0, spec.cv_noise_sd) if spec.cv_noise_sd > 0 else 0.0
                )
                cv_error = float(np.clip(test_error + cv_noise, 0.0, 1.0))
                records.append(
                    ErrorRecord(dataset, algorithm, subset, test_error, cv_error)
                )
    return ErrorTable(records)


def _csv_field(text: str) -> str:
    """One CSV field, quoted where csv needs it and where it starts with '#',
    which the reader would otherwise take for a comment line."""
    if text.lstrip().startswith("#") or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def error_table_to_csv(table: ErrorTable, comment: Optional[str] = None) -> str:
    """Render an error table back to its CSV wire format."""
    lines = [f"# {line}" for line in (comment or "").splitlines()]
    lines.append(",".join(ERROR_HEADER))
    for rec in table.records:
        cv = "" if rec.cv_error is None else repr(rec.cv_error)
        fields = [rec.dataset, rec.algorithm, str(rec.subset), repr(rec.test_error), cv]
        lines.append(",".join(_csv_field(f) for f in fields))
    return "\n".join(lines) + "\n"
