"""Rendering of analysis results to CSV, markdown and JSON.

All three formats run every number through the same 6-significant-digit
formatter, so a value printed in one format matches the others exactly.
"""
from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Optional

from .errors import InputError

if TYPE_CHECKING:  # annotations only: ranks imports this module, and nhst imports ranks
    from .nhst import FriedmanResult, PairwiseMatrix
    from .threshold import ThresholdReport

FORMATS = ("csv", "markdown", "json")


def fmt(x) -> Optional[str]:
    """``x`` to 6 significant digits; None, an undefined value, stays None."""
    return None if x is None else f"{float(x):.6g}"


def csv_table(header, rows) -> str:
    """The one CSV writer: lines ended by "\n", each field ``str``, quoted with
    its quotes doubled where it holds ',', '"', '\r' or '\n' or starts with '#'
    after any whitespace, so that ``data``'s reader splits and keeps every row."""
    return "".join(
        ",".join(['"' + s.replace('"', '""') + '"' if "," in s or '"' in s or "\r" in s or "\n" in s
                  or s.lstrip()[:1] == "#" else s for s in map(str, row)]) + "\n"
        for row in [header, *rows]
    )


def _markdown_cell(value) -> str:
    """``value`` as one markdown cell: a pipe escaped, each line break a <br>."""
    return re.sub(r"\r\n|\r|\n", "<br>", str(value).replace("|", r"\|"))


def _markdown_table(header, rows) -> str:
    lines = ["| " + " | ".join(map(_markdown_cell, header)) + " |"]
    lines.append("|" + "|".join([" --- "] * len(header)) + "|")
    for row in rows:
        lines.append("| " + " | ".join(map(_markdown_cell, row)) + " |")
    return "\n".join(lines) + "\n"


def serialise(format: str, header, rows, shape=lambda records: records, note=None) -> str:
    """Write one table model, a header plus rows, in ``format``.

    JSON is ``shape`` applied to the rows as header-keyed objects, plus a
    ``note`` key when there is a note.  A None cell is an undefined value:
    JSON null, "undefined" in csv and markdown.  The note follows the csv
    table as a comment line and the markdown table as a paragraph.
    """
    if format not in FORMATS:
        raise InputError(f"unknown format {format!r}, want one of {FORMATS}")
    if format == "json":
        obj = shape([dict(zip(header, row)) for row in rows])
        if note:
            obj["note"] = note
        return json.dumps(obj, indent=2) + "\n"
    rows = [["undefined" if c is None else c for c in row] for row in rows]
    if format == "csv":
        return csv_table(header, rows) + (f"# {note}\n" if note else "")
    return _markdown_table(header, rows) + (f"\n{note}\n" if note else "")


def _single(records):
    return records[0]


def render_rank_summary(summary, format: str = "csv") -> str:
    """Table of (algorithm, mean rank, times ranked first)."""
    rows = [(a, fmt(m), c) for a, m, c in summary]
    return serialise(format, ["algorithm", "mean_rank", "top_count"], rows)


def render_friedman(result: FriedmanResult, format: str = "csv") -> str:
    header = ["statistic", "dof", "p_value", "n_subjects", "k_treatments"]
    row = (
        fmt(result.statistic),
        result.dof,
        fmt(result.p_value),
        result.n_subjects,
        result.k_treatments,
    )
    return serialise(format, header, [row], _single)


def render_pairwise(
    m: PairwiseMatrix, format: str = "csv", alpha: Optional[float] = None
) -> str:
    """Pairwise matrix; p-values below ``alpha`` carry a significance marker.

    CSV and JSON are long-form (one row per unordered pair, with a
    ``significant`` column when ``alpha`` is given); markdown is the
    triangular matrix with significant entries in bold.
    """
    flag = alpha is not None and m.kind == "nemenyi_p"
    names = m.algorithms
    if format == "markdown":

        def cell(i, j):
            text = fmt(m.values[i, j])
            return f"**{text}**" if flag and m.values[i, j] < alpha else text

        header = [""] + list(names[:-1])
        rows = [
            [names[i]] + [cell(i, j) if j < i else "" for j in range(len(names) - 1)]
            for i in range(1, len(names))
        ]
    else:
        header = ["algorithm_a", "algorithm_b", "value"] + (["significant"] if flag else [])
        rows = [
            [names[i], names[j], fmt(m.values[i, j])]
            + ([bool(m.values[i, j] < alpha)] if flag else [])
            for i in range(len(names))
            for j in range(i + 1, len(names))
        ]
    return serialise(format, header, rows, lambda pairs: {"kind": m.kind, "pairs": pairs})


def render_threshold(report: ThresholdReport, format: str = "csv") -> str:
    header = [
        "median_delta_resample",
        "median_delta_cv",
        "threshold",
        "n_pairs_used",
        "n_cv_values",
    ]
    row = (
        fmt(report.median_delta_resample),
        fmt(report.median_delta_cv),
        fmt(report.threshold),
        report.n_pairs_used,
        report.n_cv_values,
    )
    return serialise(format, header, [row], _single)


def render_diagnostics(rows, format: str = "csv") -> str:
    """Per-parameter convergence table; a footer notes the omitted
    multivariate PSRF."""
    return serialise(
        format,
        ["parameter", "r_hat", "ess"],
        [(r.parameter, fmt(r.r_hat), fmt(r.ess)) for r in rows],
        lambda records: {"parameters": records},
        note="multivariate PSRF not computed (single-parameter diagnostics only)",
    )


def ppc_scatter_csv(pairs) -> str:
    """``t_real,t_rep`` rows for external scatter plotting."""
    return csv_table(["t_real", "t_rep"], [(fmt(t_real), fmt(t_rep)) for t_real, t_rep in pairs])
