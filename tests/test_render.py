"""The one table writer: every float cell is written by ``fmt``, and a
one-row report's columns are its record's fields."""
import json
from dataclasses import fields

import numpy as np
import pytest

from benchstat.nhst import FriedmanResult
from benchstat.render import fmt, render_friedman, render_threshold, serialise
from benchstat.threshold import ThresholdReport

HEADER = ["third", "big", "count", "flag", "name", "missing"]
ROW = [1 / 3, np.float64(12345678.9), 12345678, True, "knn", None]


def test_serialise_writes_floats_by_fmt_and_passes_the_rest():
    floats = [fmt(1 / 3), fmt(12345678.9)]
    assert floats == ["0.333333", "1.23457e+07"]
    assert serialise("csv", HEADER, [ROW]) == (
        "third,big,count,flag,name,missing\n" f"{floats[0]},{floats[1]},12345678,True,knn,undefined\n"
    )
    assert serialise("markdown", HEADER, [ROW]) == (
        "| third | big | count | flag | name | missing |\n"
        "| --- | --- | --- | --- | --- | --- |\n"
        f"| {floats[0]} | {floats[1]} | 12345678 | True | knn | undefined |\n"
    )
    text = serialise("json", HEADER, [ROW])
    assert json.loads(text) == [
        {"third": floats[0], "big": floats[1], "count": 12345678, "flag": True, "name": "knn", "missing": None}
    ]
    assert '"count": 12345678,' in text and '"flag": true,' in text and '"missing": null' in text


@pytest.mark.parametrize(
    "render, record",
    [
        (render_friedman, FriedmanResult(12.5, 3, 0.00587, 20, 4)),
        (render_threshold, ThresholdReport(0.0123, None, 0.0123, 7, 0)),
    ],
)
def test_one_row_report_columns_are_the_record_fields(render, record):
    names = [f.name for f in fields(record)]
    assert render(record, "csv").splitlines()[0] == ",".join(names)
    assert render(record, "markdown").splitlines()[0] == "| " + " | ".join(names) + " |"
    assert list(json.loads(render(record, "json"))) == names
