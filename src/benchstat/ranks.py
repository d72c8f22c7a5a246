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

import numpy as np

from .data import AggregatedMatrix
from .errors import InputError
from .render import serialise


def _round3(x: np.ndarray) -> np.ndarray:
    """Round half-up (away from zero) to 3 decimals, as decimal rounding of
    each value's shortest repr would: 0.1004 -> 0.100, 0.0005 -> 0.001.

    For a = |x| and k = floor(1000 a), a rounds up iff a >= (2k + 1) / 2000
    in floating point.  The shortest repr of a is at least the decimal
    midpoint exactly when a is at least the double nearest to it, and a
    floor off by one next to an integer gives the same result.
    """
    a = np.abs(x)
    k = np.floor(a * 1000.0)
    return np.copysign(np.where(a >= (2.0 * k + 1.0) / 2000.0, k + 1.0, k) / 1000.0, x)


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


def _rank_matrix(m: AggregatedMatrix, scheme: str) -> RankMatrix:
    """Rank every dataset's present values at once; NaN cells stay unranked.

    Dense ranks give tied values one shared slot (1, 1, 2, ...); average
    ranks give them the mean of the positions they span (1.5, 1.5, 3, ...).
    """
    values = np.where(m.mask, m.values, np.nan)
    if scheme == "dense":
        values = _round3(values)
    skip = m.mask.sum(axis=1) < 2
    values[skip] = np.nan
    order = np.argsort(values, axis=1, kind="stable")  # NaN sorts last
    ordered = np.take_along_axis(values, order, axis=1)
    # tie groups are runs of equal neighbours; NaN equals nothing
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    if scheme == "dense":
        sorted_ranks = np.cumsum(starts, axis=1).astype(float)
    else:
        ends = np.ones(ordered.shape, dtype=bool)
        ends[:, :-1] = starts[:, 1:]
        position = np.arange(ordered.shape[1])
        first = np.maximum.accumulate(np.where(starts, position, 0), axis=1)
        last = np.minimum.accumulate(np.where(ends, position, ordered.shape[1])[:, ::-1], axis=1)[:, ::-1]
        sorted_ranks = (first + last + 2) / 2.0
    sorted_ranks[np.isnan(ordered)] = np.nan
    ranks = np.empty(values.shape)
    np.put_along_axis(ranks, order, sorted_ranks, axis=1)
    if skip.any():
        skipped = [d for d, s in zip(m.datasets, skip) if s]
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


def histogram_to_svg(r: RankMatrix) -> str:
    """Standalone grayscale SVG heatmap of the rank histogram.

    Layout is deterministic: algorithms ordered as in the matrix (rows),
    ranks ascending (columns), darker means more datasets.
    """
    cell = 28  # side of one square, px
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
