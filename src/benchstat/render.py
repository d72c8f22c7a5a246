"""Rendering of analysis results to CSV, markdown and JSON.

:func:`serialise` writes every table, and every float cell in it through
the same 6-significant-digit formatter, so a value printed in one format
matches the others exactly; counts and names are written as they are.
"""
from __future__ import annotations

import json
import re
from dataclasses import fields
from typing import TYPE_CHECKING, Optional

from .errors import InputError

if TYPE_CHECKING:  # annotations only: ranks imports this module, and nhst imports ranks
    from .nhst import PairwiseMatrix

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

    A float cell (numpy's float64 too) is written by :func:`fmt`; a None
    cell is an undefined value: JSON null, "undefined" in csv and markdown;
    any other cell passes through.  JSON is ``shape`` applied to the rows as
    header-keyed objects, plus a ``note`` key when there is a note.  The note
    follows the csv table as a comment line and the markdown table as a
    paragraph.
    """
    if format not in FORMATS:
        raise InputError(f"unknown format {format!r}, want one of {FORMATS}")
    undefined = None if format == "json" else "undefined"
    rows = [[fmt(c) if isinstance(c, float) else undefined if c is None else c for c in row] for row in rows]
    if format == "json":
        obj = shape([dict(zip(header, row)) for row in rows])
        if note:
            obj["note"] = note
        return json.dumps(obj, indent=2) + "\n"
    if format == "csv":
        return csv_table(header, rows) + (f"# {note}\n" if note else "")
    return _markdown_table(header, rows) + (f"\n{note}\n" if note else "")


def render_rank_summary(summary, format: str = "csv") -> str:
    """Table of (algorithm, mean rank, times ranked first)."""
    return serialise(format, ["algorithm", "mean_rank", "top_count"], summary)


def _render_record(record, format: str = "csv") -> str:
    """A one-row report: the dataclass ``record``'s field names as the
    header, its field values as the row; JSON is the row's one object."""
    header = [f.name for f in fields(record)]
    return serialise(format, header, [[getattr(record, name) for name in header]], lambda rows: rows[0])


render_friedman = render_threshold = _render_record  # a FriedmanResult, a ThresholdReport


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
            [names[i], names[j], m.values[i, j]]
            + ([bool(m.values[i, j] < alpha)] if flag else [])
            for i in range(len(names))
            for j in range(i + 1, len(names))
        ]
    return serialise(format, header, rows, lambda pairs: {"kind": m.kind, "pairs": pairs})


def render_diagnostics(rows, format: str = "csv") -> str:
    """Per-parameter convergence table; a footer notes the omitted
    multivariate PSRF."""
    return serialise(
        format,
        ["parameter", "r_hat", "ess"],
        [(r.parameter, r.r_hat, r.ess) for r in rows],
        lambda records: {"parameters": records},
        note="multivariate PSRF not computed (single-parameter diagnostics only)",
    )


def ppc_scatter_csv(pairs) -> str:
    """``t_real,t_rep`` rows for external scatter plotting."""
    return serialise("csv", ["t_real", "t_rep"], pairs)
