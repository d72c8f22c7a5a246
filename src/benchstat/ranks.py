"""Per-dataset ranks, mean-rank summaries, and rank-distribution exports.

Two ranking schemes are exposed.  Dense ranks round each value half-up to 3
decimal places first, so values closer than 0.0005 share a rank, and tied
groups consume a single rank slot (1, 1, 2, ...).  Average ranks use exact
equality and assign tied values the mean of the positions they span, which is
the convention the Friedman/Nemenyi tests expect.  Lower values rank better.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .data import AggregatedMatrix
from .errors import InputError
from .render import serialise

_GRID = Decimal("0.001")


def _round3(x: float) -> float:
    # decimal round-half-up on the shortest repr, so 0.1004 -> 0.100 and
    # 0.0005 -> 0.001 regardless of binary representation quirks
    return float(Decimal(repr(float(x))).quantize(_GRID, rounding=ROUND_HALF_UP))


@dataclass
class RankMatrix:
    """Dataset x algorithm grid of ranks; NaN where the cell is missing."""

    scheme: str  # "dense" or "average"
    algorithms: tuple
    datasets: tuple
    ranks: np.ndarray

    def __post_init__(self):
        if self.scheme not in ("dense", "average"):
            raise ValueError(f"unknown scheme: {self.scheme!r}")
        self.algorithms = tuple(self.algorithms)
        self.datasets = tuple(self.datasets)
        self.ranks = np.asarray(self.ranks, dtype=float)

    def complete_cases(self) -> "RankMatrix":
        """Drop datasets with any missing algorithm, warning about each."""
        keep = ~np.isnan(self.ranks).any(axis=1)
        dropped = [d for d, k in zip(self.datasets, keep) if not k]
        if dropped:
            warnings.warn(
                f"dropping {len(dropped)} incomplete datasets: {', '.join(dropped)}",
                stacklevel=2,
            )
        return RankMatrix(
            self.scheme,
            self.algorithms,
            tuple(d for d, k in zip(self.datasets, keep) if k),
            self.ranks[keep],
        )


def _rank_row(values: np.ndarray, scheme: str) -> np.ndarray:
    """Ranks of one dataset's present values; NaN cells stay unranked.

    Dense ranks give tied values one shared slot (1, 1, 2, ...); average
    ranks give them the mean of the positions they span (1.5, 1.5, 3, ...).
    """
    ranks = np.full(values.shape, np.nan)
    present = ~np.isnan(values)
    _, inv, counts = np.unique(values[present], return_inverse=True, return_counts=True)
    if scheme == "dense":
        ranks[present] = inv + 1
    else:
        ranks[present] = (np.cumsum(counts) - (counts - 1) / 2.0)[inv]
    return ranks


def _rank_matrix(m: AggregatedMatrix, scheme: str) -> RankMatrix:
    values = np.where(m.mask, m.values, np.nan)
    ranks = np.full(values.shape, np.nan)
    skipped = []
    for di, dataset in enumerate(m.datasets):
        if m.mask[di].sum() < 2:
            skipped.append(dataset)
            continue
        row = values[di]
        if scheme == "dense":
            row = np.array([np.nan if np.isnan(v) else _round3(v) for v in row])
        ranks[di] = _rank_row(row, scheme)
    if skipped:
        warnings.warn(
            f"skipping {len(skipped)} datasets with <2 present algorithms: "
            f"{', '.join(skipped)}",
            stacklevel=3,
        )
    return RankMatrix(scheme, m.algorithms, m.datasets, ranks)


def dense_ranks(m: AggregatedMatrix) -> RankMatrix:
    """Dense ranks after rounding values half-up to 3 decimal places."""
    return _rank_matrix(m, "dense")


def average_ranks(m: AggregatedMatrix) -> RankMatrix:
    """Fractional (mean-of-positions) ranks on the raw values."""
    return _rank_matrix(m, "average")


def mean_rank_summary(r: RankMatrix) -> list:
    """Per-algorithm (name, mean rank, times ranked first), best first.

    The mean is over datasets where the algorithm is present; ties in mean
    rank are broken by algorithm identifier.
    """
    rows = []
    for ai, algorithm in enumerate(r.algorithms):
        col = r.ranks[:, ai]
        present = ~np.isnan(col)
        if not present.any():
            continue
        mean_rank = float(col[present].mean())
        top_count = int((col[present] == 1.0).sum())
        rows.append((algorithm, mean_rank, top_count))
    rows.sort(key=lambda row: (row[1], row[0]))
    return rows


def rank_histogram(r: RankMatrix) -> np.ndarray:
    """counts[a][k] = number of datasets where algorithm a holds rank k+1.

    Requires the dense scheme: dense ranks are integers so counting is exact.
    """
    if r.scheme != "dense":
        raise InputError("rank_histogram requires a dense-scheme rank matrix")
    max_rank = int(np.nanmax(r.ranks)) if np.isfinite(r.ranks).any() else 0
    counts = np.zeros((len(r.algorithms), max_rank), dtype=int)
    present = ~np.isnan(r.ranks)
    np.add.at(counts, (np.nonzero(present)[1], r.ranks[present].astype(int) - 1), 1)
    return counts


def histogram_to_csv(r: RankMatrix) -> str:
    """Render the rank histogram as ``algorithm,rank,count`` rows."""
    counts = rank_histogram(r)
    rows = [
        (algorithm, rank + 1, counts[ai, rank])
        for ai, algorithm in enumerate(r.algorithms)
        for rank in range(counts.shape[1])
    ]
    return serialise("csv", ["algorithm", "rank", "count"], rows)


def histogram_to_svg(r: RankMatrix, cell: int = 28) -> str:
    """Standalone grayscale SVG heatmap of the rank histogram.

    Layout is deterministic: algorithms ordered as in the matrix (rows),
    ranks ascending (columns), darker means more datasets.
    """
    counts = rank_histogram(r)
    n_alg, n_rank = counts.shape
    peak = counts.max() if counts.size else 1
    label_w = 10 + 7 * max((len(a) for a in r.algorithms), default=0)
    width = label_w + n_rank * cell + 10
    height = 30 + n_alg * cell + 10
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        '<style>text{font:12px monospace;}</style>',
    ]
    for ki in range(n_rank):
        x = label_w + ki * cell + cell // 2 - 4
        lines.append(f'<text x="{x}" y="20">{ki + 1}</text>')
    for ai, algorithm in enumerate(r.algorithms):
        y0 = 30 + ai * cell
        lines.append(f'<text x="5" y="{y0 + cell // 2 + 4}">{algorithm}</text>')
        for ki in range(n_rank):
            shade = 255 - int(round(255 * counts[ai, ki] / peak)) if peak else 255
            x0 = label_w + ki * cell
            lines.append(
                f'<rect x="{x0}" y="{y0}" width="{cell}" height="{cell}" '
                f'fill="rgb({shade},{shade},{shade})" stroke="black"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
