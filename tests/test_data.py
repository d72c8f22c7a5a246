import contextlib
import csv
import io
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchstat import (
    ErrorRecord,
    InputError,
    SynthSpec,
    TimingRecord,
    aggregate_errors,
    generate_synthetic,
    ingest_error_table,
    ingest_timing_table,
    matrix_from_timings,
)
import benchstat.data
from benchstat.cli import main
from benchstat.data import AggregatedMatrix, ErrorTable, TimingTable, error_table_to_csv

HEADER = "dataset,algorithm,subset,test_error,cv_error\n"
TIMING_HEADER = (
    "dataset,algorithm,subset,train_test_seconds,hyper_search_seconds,n_hyper_combos\n"
)


def rank_by_main(name: str):
    """A reader of a table's text or bytes that runs ``main(["rank", ...])``
    on them, from a file (``name`` "path") or from standard input (``name``
    "-"), and raises the message of an exit with code 2 as an
    :class:`InputError`, without the "error: " and "cannot read NAME: " that
    the command writes before it."""

    def read(source):
        raw = source.encode("utf-8") if isinstance(source, str) else source
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "table.csv"
            path.write_bytes(raw)
            argv = ["rank", str(path) if name == "path" else "-"]
            stdin, err = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"), io.StringIO()
            with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stderr(err):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
        if code == 2:
            message = err.getvalue().removeprefix("error: ").removeprefix(f"cannot read {argv[1]}: ")
            raise InputError(message.rstrip("\n"))
        assert code == 0, err.getvalue()

    return read


def ingest_opened_file(text: str):
    """``ingest_error_table`` of a file holding ``text``, as ``open`` gives it:
    a text stream in universal-newline mode."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "table.csv"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            return ingest_error_table(fh)


# every route by which a table's text reaches ingest: the library's source kinds, then the CLI's
TEXT_READERS = {
    "str": ingest_error_table,
    "bytes": lambda text: ingest_error_table(text.encode("utf-8")),
    "byte stream": lambda text: ingest_error_table(io.BytesIO(text.encode("utf-8"))),
    "text stream": lambda text: ingest_error_table(io.StringIO(text, newline="")),
    "opened file": ingest_opened_file,
    "main path": rank_by_main("path"),
    "main stdin": rank_by_main("-"),
}


class TestIngestErrorTable:
    def test_direct_parse(self):
        table = ingest_error_table(HEADER + "iris,rf,1,0.05,0.06\n")
        assert len(table) == 1
        rec = table.records[0]
        assert rec.dataset == "iris" and rec.algorithm == "rf"
        assert rec.subset == 1
        assert rec.test_error == 0.05
        assert rec.cv_error == 0.06

    def test_empty_cv(self):
        table = ingest_error_table(HEADER + "iris,rf,1,0.05,\n")
        assert table.records[0].cv_error is None

    def test_unknown_subset(self):
        with pytest.raises(InputError, match="unknown subset value"):
            ingest_error_table(HEADER + "iris,rf,3,0.05,\n")

    def test_duplicate_key_names_second_line(self):
        text = HEADER + "iris,rf,1,0.05,\niris,rf,1,0.06,\n"
        with pytest.raises(InputError, match="line 3"):
            ingest_error_table(text)

    def test_duplicate_key_lines_count_comments_and_blanks(self):
        text = "# a\n" + HEADER + "iris,rf,1,0.05,\n# b\n\niris,rf,1,0.06,\n"
        with pytest.raises(InputError, match=r"^line 6: duplicate key .*first seen at line 3\)$"):
            ingest_error_table(text)

    def test_value_outside_unit_interval(self):
        with pytest.raises(InputError, match=r"outside \[0,1\]"):
            ingest_error_table(HEADER + "iris,rf,1,1.5,\n")

    def test_malformed_row_reports_line(self):
        with pytest.raises(InputError, match="line 2"):
            ingest_error_table(HEADER + "iris,rf,1,notanumber,\n")

    @pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
    @pytest.mark.parametrize(
        "before, line",
        [("# c\n\n", 3), ("# c\n" + HEADER + "iris,rf,1,0.05,\n\n# d\n", 6)],
        ids=["header", "data row"],
    )
    def test_reader_error_names_the_line_its_record_starts_on(self, before, line, as_bytes):
        # an unclosed quote runs its field past the csv module's 131,072-character limit
        text = before + 'iris,"rf,2,0.05,\n' + "x" * 140_000 + "\n"
        with pytest.raises(InputError, match=rf"^line {line}: field larger than field limit"):
            ingest_error_table(text.encode("utf-8") if as_bytes else text)

    @pytest.mark.parametrize(
        "before, message",
        [
            (HEADER + "a,b,1,zz,\n", "line 2: malformed test_error value 'zz'"),
            (HEADER + "iris,rf,1,0.05,\niris,rf,1,0.06,\n", "line 3: duplicate key"),
            ("# c\n", "line 2: field larger than field limit"),
        ],
        ids=["rule", "duplicate", "header"],
    )
    def test_earlier_row_error_comes_before_a_reader_error(self, before, message):
        # the reader rejects the record after ``before``: the header itself
        # when ``before`` holds none
        text = before + 'iris,"rf,2,0.05,\n' + "x" * 140_000 + "\n"
        with pytest.raises(InputError, match="^" + re.escape(message)):
            ingest_error_table(text)

    def test_bad_header_rejected(self):
        with pytest.raises(InputError, match="header"):
            ingest_error_table("a,b,c\n1,2,3\n")

    def test_crlf_accepted(self):
        table = ingest_error_table(HEADER.replace("\n", "\r\n") + "iris,rf,1,0.05,0.06\r\n")
        assert len(table) == 1

    def test_byte_stream(self):
        stream = io.BytesIO((HEADER + "iris,rf,1,0.05,\n").encode("utf-8"))
        assert len(ingest_error_table(stream)) == 1

    @pytest.mark.parametrize("read", TEXT_READERS.values(), ids=list(TEXT_READERS))
    def test_every_source_kind_splits_lines_at_newline_alone(self, read):
        text = HEADER + '"a\rb",rf,1,0.1,\nx,rf,1,zz,\n'
        with pytest.raises(InputError, match="^line 3: malformed test_error value 'zz'$"):
            read(text)

    @pytest.mark.parametrize("read", TEXT_READERS.values(), ids=list(TEXT_READERS))
    @pytest.mark.parametrize("row", ["d,rf,1,0.1,", "d,rf,1,x,"], ids=["valid row", "malformed row"])
    def test_bare_carriage_returns_end_no_line(self, read, row):
        text = HEADER.replace("\n", "\r") + row + "\r"
        message = 'line 1: a carriage return outside quotes ends no line; lines end at "\\n" (CRLF is fine)'
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            read(text)

    @pytest.mark.parametrize(
        "read",
        [
            ingest_error_table,
            lambda raw: ingest_error_table(io.BytesIO(raw)),
            lambda raw: ingest_error_table(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")),
            rank_by_main("path"),
            rank_by_main("-"),
        ],
        ids=["bytes", "byte stream", "text stream", "main path", "main stdin"],
    )
    def test_bytes_that_are_not_utf8_name_their_line(self, read):
        raw = (HEADER + "iris,rf,1,0.05,\r\n").encode("utf-8") + b"wine,r\xe9,1,0.05,\n"
        with pytest.raises(InputError, match=r"^line 3: byte 0xe9 is not valid UTF-8$"):
            read(raw)

    @pytest.mark.parametrize(
        "text",
        [HEADER + "iris,rf,1,0.05,\n", "# note\n" + HEADER + "iris,rf,1,0.05,\n"],
        ids=["header first", "comment first"],
    )
    def test_byte_order_mark_dropped(self, text):
        expected = ingest_error_table(text).records
        assert ingest_error_table("\ufeff" + text).records == expected
        assert ingest_error_table(("\ufeff" + text).encode("utf-8")).records == expected
        assert ingest_error_table(io.BytesIO(("\ufeff" + text).encode("utf-8"))).records == expected

    def test_only_one_leading_byte_order_mark_dropped(self):
        with pytest.raises(InputError, match=r"unexpected header \['\\ufeffdataset'"):
            ingest_error_table("\ufeff\ufeff" + HEADER + "iris,rf,1,0.05,\n")

    def test_missing_cv_column_degraded_mode(self):
        table = ingest_error_table("dataset,algorithm,subset,test_error\niris,rf,1,0.05\n")
        assert table.records[0].cv_error is None

    def test_comment_lines_skipped(self):
        table = ingest_error_table("# generated\n" + HEADER + "iris,rf,1,0.05,\n")
        assert len(table) == 1

    def test_hash_names_survive_csv_roundtrip(self):
        text = HEADER + '"#ds1",rf,1,0.1,\nds2,rf,1,0.2,\n"a,b","#x",2,0.3,0.4\n"q""t",rf,2,0.5,\n'
        table = ingest_error_table(text)
        written = error_table_to_csv(table)
        assert written.splitlines()[1] == '"#ds1",rf,1,0.1,'
        again = ingest_error_table(written)
        assert len(again) == len(table) == 4
        assert [(r.dataset, r.algorithm, r.subset, r.test_error, r.cv_error) for r in again] == [
            (r.dataset, r.algorithm, r.subset, r.test_error, r.cv_error) for r in table
        ]

    def test_hash_line_inside_a_quoted_field_round_trips(self):
        spec = SynthSpec(beta=0.2, alpha={"rf": 0.0}, delta={"a\n#b": 0.0, "z": 0.1})
        table = generate_synthetic(spec, seed=0)
        assert table.datasets == ("a\n#b", "z")
        assert ingest_error_table(error_table_to_csv(table)).records == table.records

    @pytest.mark.parametrize(
        "rows, dataset",
        [('"x\ny",rf,1,0.1,\n# say "hi\n', "x\ny"), ('d"e,rf,1,0.1,\n# c\n', 'd"e')],
        ids=["quote in a comment after a quoted line break", "quote inside an unquoted field"],
    )
    def test_comment_lines_where_a_record_starts(self, rows, dataset):
        table = ingest_error_table(HEADER + rows + "z,rf,1,0.2,\n")
        assert table.datasets == (dataset, "z") and len(table) == 2


class TestTableConstructor:
    def test_repeated_key_names_both_rows(self):
        rows = [["d", "a", "1", "0.1", ""], ["d", "a", "1", "0.2", ""]]
        with pytest.raises(InputError, match=re.escape("rows[1]: duplicate key ('d', 'a', 1) (first seen at rows[0])")):
            ErrorTable(rows, 5)

    def test_malformed_value_names_its_row(self):
        rows = [["d", "a", "1", "0.1", ""], ["d", "a", "2", "zz", ""]]
        with pytest.raises(InputError, match=r"^rows\[1\]: malformed test_error value 'zz'$"):
            ErrorTable(rows, 5)

    @pytest.mark.parametrize("table, width", [(ErrorTable, 6), (ErrorTable, 3), (TimingTable, 5)])
    def test_width_of_no_header_rejected(self, table, width):
        accepted = [len(header) for header in table.headers]
        with pytest.raises(ValueError, match=re.escape(f"width must be one of {accepted}, got {width}")):
            table([["d", "a", "1", "0.1", "", "x"][:width]], width)

    def test_short_tuple_row_names_its_field_count(self):
        with pytest.raises(InputError, match=re.escape("rows[0]: expected 5 fields, got 4")):
            ErrorTable([("d", "a", "1", "0.1")], 5)


# schema -> (header, good row maker, malformed rows, ingester)
SCHEMAS = {
    "error": (
        HEADER.strip(),
        lambda i: f"ds{i},rf,1,0.1,0.2",
        ["ds9,rf,1,0.1", "ds9,rf,3,0.1,0.2", "ds9,rf,1,x,0.2", "ds9,rf,1,1.5,", ",rf,1,0.1,"],
        ingest_error_table,
    ),
    "timing": (
        TIMING_HEADER.strip(),
        lambda i: f"ds{i},rf,1,1.0,2.0,3",
        ["ds9,rf,1,1.0,2.0", "ds9,rf,0,1,2,3", "ds9,rf,2,a,2.0,3", "ds9,rf,1,1.0,-2.0,3",
         "ds9,rf,1,1,2,0", "ds9,,1,1.0,2.0,3", "ds9,rf,1,nan,2.0,3", "ds9,rf,1,1.0,inf,3"],
        ingest_timing_table,
    ),
}


# Line ends for the tests below: io.StringIO splits lines only at "\n", so
# the other characters str.splitlines breaks at must not move a line number.
EOL = st.sampled_from(["\n", "\r\n"])
IDENTIFIER_TEXT = st.text(st.sampled_from([",", '"', "\n", "\r", "\x0c", "\u2028", "x"]), max_size=4)


def quoted(text):
    return '"' + text.replace('"', '""') + '"'


@settings(max_examples=150, deadline=None)
@given(
    schema=st.sampled_from(sorted(SCHEMAS)),
    gaps=st.lists(
        st.lists(st.sampled_from(["# note", "#a,b,c", "", "  "]), max_size=3),
        min_size=4,
        max_size=4,
    ),
    bad_at=st.integers(0, 2),
    data=st.data(),
)
def test_error_names_the_file_line_of_the_malformed_row(schema, gaps, bad_at, data):
    header, good, malformed, ingest = SCHEMAS[schema]
    rows = [good(i).replace(f"ds{i}", quoted(f"ds{i}" + data.draw(IDENTIFIER_TEXT)), 1) for i in range(3)]
    rows[bad_at] = bad = data.draw(st.sampled_from(malformed))
    lines = gaps[0] + [header]
    for gap, row in zip(gaps[1:], rows):
        lines += gap + [row]
    before = "".join(line + data.draw(EOL) for line in lines[: lines.index(bad)])
    after = "".join(line + data.draw(EOL) for line in lines[lines.index(bad) :])
    with pytest.raises(InputError, match=rf"^line {before.count(chr(10)) + 1}: "):
        ingest(before + after)


def number(kind, text, column):
    try:
        return kind(text)
    except ValueError:
        raise InputError(f"malformed {column} value {text.strip()!r}") from None


def error_values(row):
    cv = row[4].strip() if len(row) > 4 else ""
    return number(float, row[3], "test_error"), number(float, cv, "cv_error") if cv else None


def timing_values(row):
    return (
        number(float, row[3], "train_test_seconds"),
        number(float, row[4], "hyper_search_seconds"),
        number(int, row[5], "n_hyper_combos"),
    )


def reference_ingest(text, record, values):
    """Row-at-a-time parse: each row through the per-row rule as it is
    read, then the first repeated key.  Assumes a valid header."""
    source, start = list(io.StringIO(text)), 0  # start: the line the next record starts on

    def lines():  # a '#' line is a comment where a record starts
        for n, line in enumerate(source):
            yield "\n" if n == start and line.lstrip().startswith("#") else line

    reader = csv.reader(lines())
    width, parsed = None, []
    for row in reader:
        start = reader.line_num
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if width is None:
            width = len(row)
            continue
        try:
            if len(row) != width:
                raise InputError(f"expected {width} fields, got {len(row)}")
            dataset, algorithm, subset = (field.strip() for field in row[:3])
            if not dataset or not algorithm:
                raise InputError("empty identifier")
            if subset not in ("1", "2"):
                raise InputError(f"unknown subset value {subset!r}")
            parsed.append((record(dataset, algorithm, int(subset), *values(row)), reader.line_num))
        except InputError as exc:
            raise InputError(f"line {reader.line_num}: {exc}") from None
    first = {}
    for rec, line in parsed:
        key = (rec.dataset, rec.algorithm, rec.subset)
        if key in first:
            raise InputError(f"line {line}: duplicate key {key} (first seen at line {first[key]})")
        first[key] = line
    return tuple(rec for rec, _ in parsed)


# Quoted identifiers holding a delimiter, a quote or a line break of
# str.splitlines, or a line that starts with '#'; the blank ones strip to "".
QUOTED_DATASETS = list(
    map(quoted, ["d,1", 'd"q', "d\n1", "d\r\n2", "d\r1", "\x0cd", "d\u2028", "d\x1c\x85", "a\n#b"])
)
QUOTED_ALGORITHMS = list(map(quoted, ["a\nb", "c,", "a\u2028b"]))
QUOTED_BLANKS = list(map(quoted, ["\x0c", "\u2028 ", "\r\n"]))

# schema -> (headers, good values per field, bad values per field, record, values, ingester)
FIELDS = {
    "error": (
        (HEADER.strip(), "dataset,algorithm,subset,test_error"),
        [["d1", " d1 ", "d2", "d3", 'd"e', *QUOTED_DATASETS], ["a", " b", "c", *QUOTED_ALGORITHMS], ["1", "2", " 2 "],
         ["0.5", " 0.25 ", "0", "1", "-0.0", "1e-3"], ["", " ", "0.1", "1", "0.0"]],
        [["", " ", *QUOTED_BLANKS], ["", "  ", *QUOTED_BLANKS], ["3", "0", "x", ""],
         ["abc", "1.5", "nan", "inf", "1_0", ""], ["abc", "1.5", "nan", "-inf", "1_0"]],
        ErrorRecord,
        error_values,
        ingest_error_table,
    ),
    "timing": (
        (TIMING_HEADER.strip(),),
        [["d1", " d1 ", "d2", "d3", 'd"e', *QUOTED_DATASETS], ["a", " b", "c", *QUOTED_ALGORITHMS], ["1", "2", " 2 "],
         ["1.5", " 0 ", "1_0", "2e3"], ["2", "0.5", " 7 "], ["1", "24", " 3 ", "1_0"]],
        [["", " ", *QUOTED_BLANKS], ["", "  ", *QUOTED_BLANKS], ["3", "0", "x", ""],
         ["abc", "nan", "inf", "-1", ""], ["abc", "nan", "-inf", "-0.5", ""], ["0", "1.5", "abc", "", "-2", "nan", "9223372036854775808", "1" + "0" * 400]],
        TimingRecord,
        timing_values,
        ingest_timing_table,
    ),
}


@st.composite
def table_texts(draw, schema):
    headers, good, bad, *_ = FIELDS[schema]
    header = draw(st.sampled_from(headers))
    width = header.count(",") + 1
    key = lambda row: tuple(field.strip() for field in row[:3])
    rows = draw(st.lists(st.tuples(*map(st.sampled_from, good)).map(list), max_size=8, unique_by=key))
    rows = [row[:width] for row in rows]
    if rows:
        index = st.integers(0, len(rows) - 1)
        for _ in range(draw(st.integers(0, 2))):  # bad fields
            row, field = rows[draw(index)], draw(st.integers(0, width - 1))
            row[field] = draw(st.sampled_from(bad[field]))
        if draw(st.booleans()):  # a repeated key
            rows.append(rows[draw(index)][:3] + [draw(st.sampled_from(v)) for v in good[3:width]])
        if draw(st.sampled_from([False] * 4 + [True])):  # a wrong field count
            row = rows[draw(index)]
            row[:] = row[:-1] if draw(st.booleans()) else row + ["0"]
    gap = st.lists(st.sampled_from(["# note", "#a,b,c", ' # "q,r', "", "  "]), max_size=2)
    lines = draw(gap) + [header]
    for row in rows:
        lines += draw(gap) + [",".join(row)]
    return "".join(line + draw(EOL) for line in lines)


@settings(max_examples=400, deadline=None)
@given(schema=st.sampled_from(sorted(FIELDS)), data=st.data())
def test_column_checks_agree_with_the_per_row_rule(schema, data):
    *_, record, values, ingest = FIELDS[schema]
    text = data.draw(table_texts(schema))
    try:
        expected = reference_ingest(text, record, values)
    except InputError as exc:
        with pytest.raises(InputError) as raised:
            ingest(text)
        assert str(raised.value) == str(exc)
    else:
        assert [repr(r) for r in ingest(text).records] == [repr(r) for r in expected]


def test_valid_tables_are_never_walked_row_by_row(monkeypatch):
    passes = []
    read = benchstat.data._records

    def counted(lines):
        passes.append(lines)
        return read(lines)

    def walk(*args):
        raise AssertionError("a valid table was converted one text at a time")

    monkeypatch.setattr("benchstat.data._records", counted)
    monkeypatch.setattr("benchstat.data._each", walk)
    golden = Path(__file__).parent / "golden"
    spec = SynthSpec(beta=0.2, alpha={"#a": 0.0, "b": 0.05}, delta={"#d1": 0.0, "#d2": 0.1}, noise_sd=0.01)
    tables = {
        "golden errors": ingest_error_table((golden / "errors.csv").read_text(encoding="utf-8")),
        "golden timing": ingest_timing_table((golden / "timing.csv").read_text(encoding="utf-8")),
        "synth": ingest_error_table(error_table_to_csv(generate_synthetic(spec, seed=1), "spec")),
        "no cv": ingest_error_table("dataset,algorithm,subset,test_error\n# x\niris,rf,1,0.05\niris,rf,2,0.1\n"),
        "timing": ingest_timing_table(TIMING_HEADER + "iris,rf,1,10,120,24\r\niris,knn,2,1, 2 ,3\r\n"),
    }
    assert {name: len(t) for name, t in tables.items()} == {
        "golden errors": 119, "golden timing": 120, "synth": 8, "no cv": 2, "timing": 2,
    }
    assert tables["synth"].datasets == ("#d1", "#d2")
    assert len(passes) == len(tables)
    # a short row is padded with a text every conversion reads
    with pytest.raises(InputError, match="^line 3: expected 5 fields, got 3$"):
        ingest_error_table(HEADER + "iris,rf,1,0.05,\niris,rf,2\n")


class TestAggregateErrors:
    def test_mean_of_two_subsets(self):
        table = ingest_error_table(HEADER + "iris,rf,1,0.10,\niris,rf,2,0.20,\n")
        m = aggregate_errors(table)
        assert m.values[0, 0] == (0.10 + 0.20) / 2  # exact mean of machine numbers
        assert m.mask[0, 0]

    def test_single_subset_missing(self):
        table = ingest_error_table(HEADER + "iris,rf,1,0.10,\n")
        m = aggregate_errors(table)
        assert not m.mask[0, 0]
        assert np.isnan(m.values[0, 0])

    def test_zero_errors(self):
        table = ingest_error_table(HEADER + "iris,rf,1,0.0,\niris,rf,2,0.0,\n")
        assert aggregate_errors(table).values[0, 0] == 0.0

    @given(st.permutations(range(6)))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariant(self, order):
        rows = ["d1,a,1,0.1,", "d1,a,2,0.2,", "d1,b,1,0.3,", "d1,b,2,0.4,", "d2,a,1,0.5,", "d2,a,2,0.6,"]
        base = aggregate_errors(ingest_error_table(HEADER + "\n".join(rows)))
        shuffled = aggregate_errors(ingest_error_table(HEADER + "\n".join(rows[i] for i in order)))
        assert base.algorithms == shuffled.algorithms
        assert base.datasets == shuffled.datasets
        np.testing.assert_array_equal(base.values, shuffled.values)

    @given(
        st.floats(min_value=0, max_value=1, allow_nan=False),
        st.floats(min_value=0, max_value=1, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_cell_is_exact_mean(self, e1, e2):
        table = ingest_error_table(HEADER + f"d,a,1,{e1!r},\nd,a,2,{e2!r},\n")
        m = aggregate_errors(table)
        assert m.values[0, 0] == (e1 + e2) / 2.0


class TestIngestTimingTable:
    def test_per_hyper_derivation(self):
        table = ingest_timing_table(TIMING_HEADER + "iris,rf,1,10,120,24\n")
        assert matrix_from_timings(table, "per_hyper").values[0, 0] == 5.0

    def test_zero_combos_rejected(self):
        with pytest.raises(InputError, match="n_hyper_combos"):
            ingest_timing_table(TIMING_HEADER + "iris,rf,1,10,120,0\n")

    def test_negative_time_rejected(self):
        with pytest.raises(InputError, match="negative time"):
            ingest_timing_table(TIMING_HEADER + "iris,rf,1,-1,120,24\n")

    def test_empty_identifier_rejected(self):
        for row in (",rf,1,1,1,1\n", "iris, ,1,1,1,1\n"):
            with pytest.raises(InputError, match="line 2: empty identifier"):
                ingest_timing_table(TIMING_HEADER + row)

    @pytest.mark.parametrize(
        "row, column",
        [("iris,rf,1,nan,120,24", "train_test_seconds"), ("iris,rf,1,10,inf,24", "hyper_search_seconds"),
         ("iris,rf,1,-inf,120,24", "train_test_seconds"), ("iris,rf,1,10, NaN ,24", "hyper_search_seconds")],
    )
    def test_non_finite_time_rejected(self, row, column):
        text = TIMING_HEADER + "iris,knn,1,10,120,24\n" + row + "\n"
        with pytest.raises(InputError, match=rf"^line 3: {column} not finite: "):
            ingest_timing_table(text)
        with pytest.raises(InputError, match="not finite"):
            TimingRecord("iris", "rf", 1, float("nan"), 1.0, 1)

    def test_timing_matrix_subjects_are_subsets(self):
        text = TIMING_HEADER + "iris,rf,1,10,120,24\niris,rf,2,20,240,24\n"
        m = matrix_from_timings(ingest_timing_table(text), "one_train_test")
        assert m.datasets == ("iris::1", "iris::2")
        assert m.values[0, 0] == 10 and m.values[1, 0] == 20


class TestGenerateSynthetic:
    def test_zero_noise_exact_cells(self):
        spec = SynthSpec(beta=0.2, alpha={"a": 0.0, "b": 0.05}, delta={"d1": 0.1})
        table = generate_synthetic(spec, seed=0)
        for rec in table.records:
            expected = 0.2 + spec.alpha[rec.algorithm] + 0.1
            assert rec.test_error == expected
            assert rec.cv_error == expected

    def test_clamping(self):
        spec = SynthSpec(beta=0.9, alpha={"a": 0.5}, delta={"d": 0.0, "e": 0.0})
        for rec in generate_synthetic(spec, seed=0).records:
            assert rec.test_error == 1.0

    def test_deterministic_per_seed(self):
        spec = SynthSpec(
            beta=0.2,
            alpha={"a": 0.0, "b": 0.05},
            delta={f"d{i}": 0.0 for i in range(5)},
            noise_sd=0.01,
            cv_noise_sd=0.01,
        )
        t1 = error_table_to_csv(generate_synthetic(spec, seed=7))
        t2 = error_table_to_csv(generate_synthetic(spec, seed=7))
        assert t1 == t2
        t3 = error_table_to_csv(generate_synthetic(spec, seed=8))
        assert t1 != t3

    def test_planted_ordering_dominates(self):
        # gap 0.05 vs per-subset noise 0.01: the better algorithm wins on
        # effectively every dataset (Monte Carlo over 1000 seeds: min 50/50)
        spec = SynthSpec(
            beta=0.2,
            alpha={"a": 0.0, "b": 0.05},
            delta={f"d{i:02d}": 0.0 for i in range(50)},
            noise_sd=0.01,
        )
        m = aggregate_errors(generate_synthetic(spec, seed=123))
        ai_a = m.algorithms.index("a")
        ai_b = m.algorithms.index("b")
        wins = int((m.values[:, ai_a] < m.values[:, ai_b]).sum())
        assert wins > 45

    def test_negative_noise_rejected(self):
        with pytest.raises(InputError):
            SynthSpec(beta=0.2, alpha={"a": 0.0}, delta={"d": 0.0}, noise_sd=-1.0)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"alpha": {"": 0.0}}, "alpha name '' is empty or has whitespace around it"),
            ({"delta": {"d ": 0.0}}, "delta name 'd ' is empty or has whitespace around it"),
            ({"delta": {"\u2028d": 0.0}}, "delta name '\\u2028d' is empty or has whitespace around it"),
            ({"beta": float("nan")}, "beta must be finite, got nan"),
            ({"alpha": {"a": float("inf")}}, "alpha['a'] must be finite, got inf"),
            ({"noise_sd": float("inf")}, "noise_sd must be finite, got inf"),
            ({"cv_noise_sd": float("nan")}, "cv_noise_sd must be finite, got nan"),
            ({"beta": 1e308, "alpha": {"a": 1e308}, "noise_sd": 1e308}, "beta + alpha + delta must be finite, got inf"),
            ({"beta": -1e308, "alpha": {"a": -1e308, "b": 1e308}}, "beta + alpha + delta must be finite, got -inf"),
        ],
        ids=["empty name", "padded name", "line-separator padding", "NaN beta", "infinite effect",
             "infinite noise", "NaN CV noise", "overflowing mean", "overflowing smallest mean"],
    )
    def test_names_and_numbers_a_table_cannot_hold_rejected(self, changes, message):
        fields = {"beta": 0.2, "alpha": {"a": 0.0}, "delta": {"d": 0.0}, **changes}
        with pytest.raises(InputError, match="^" + re.escape(message) + "$"):
            SynthSpec(**fields)

    def test_spec_json_with_nan_rejected(self):
        with pytest.raises(InputError, match="^beta must be finite"):
            SynthSpec.from_json('{"beta": NaN, "alpha": {"a": 0}, "delta": {"d": 0}}')

    def test_csv_roundtrip(self):
        spec = SynthSpec(
            beta=0.2,
            alpha={"a": 0.0, "b": 0.05},
            delta={"d1": 0.0, "d2": 0.1},
            noise_sd=0.013,
            cv_noise_sd=0.002,
        )
        table = generate_synthetic(spec, seed=3)
        text = error_table_to_csv(table, comment="spec echo")
        again = ingest_error_table(text)
        assert again.records == table.records  # equal records, in input order
        assert [repr(r) for r in again] == [repr(r) for r in table]


@pytest.mark.parametrize("call, error, message", [
    (lambda: matrix_from_timings(ingest_timing_table(TIMING_HEADER + "iris,rf,1,10,120,24\n"), "bogus"),
     InputError, "unknown timing metric: 'bogus'"),
    (lambda: TimingRecord("iris", "rf", 1, 1.0, 1.0, 2**63), InputError,
     f"n_hyper_combos must be <= {2**63 - 1}, got {2**63}"),
    (lambda: ErrorRecord("iris", "rf", 3, 0.1), InputError, "unknown subset value: 3"),
    (lambda: TimingRecord("iris", "rf", 0, 1.0, 1.0, 1), InputError, "unknown subset value: 0"),
    (lambda: AggregatedMatrix(["a", "b"], ["d"], np.zeros((2, 1)), np.ones((2, 1), bool)),
     ValueError, "values shape does not match labels"),
    (lambda: AggregatedMatrix(["a", "b"], ["d"], np.zeros((1, 2)), np.ones((2, 1), bool)),
     ValueError, "mask shape does not match values"),
], ids=["timing metric", "combos past int64", "error subset", "timing subset", "values shape", "mask shape"])
def test_library_input_checks(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        call()
