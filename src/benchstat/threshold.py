"""Empirical irrelevance threshold from paired per-subset errors.

Two gap measures are computed over each dataset's top-3 algorithms: the
absolute difference between the two half-dataset test errors (how much the
error moves when train and test samples swap), and the absolute difference
between the CV estimate and the realized test error (how much it moves with a
slightly larger training set and fresh test data).  The threshold is the
smaller of the two medians.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import AggregatedMatrix, ErrorTable, aggregate_errors


@dataclass
class ThresholdReport:
    median_delta_resample: Optional[float]
    median_delta_cv: Optional[float]
    threshold: Optional[float]
    n_pairs_used: int  # (dataset, algorithm) pairs entering the resample median
    n_cv_values: int = 0


def top_k_algorithms(m: AggregatedMatrix, k: int) -> dict:
    """Per dataset, the algorithms with the k smallest aggregated errors.

    Ties at the k-th boundary are all included, so a set may exceed k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    values = np.where(m.mask, m.values, np.inf)
    count = m.mask.sum(axis=1)
    # the k-th smallest present value of each row, or its largest with fewer;
    # a row with none takes the inf column appended last
    ranked = np.sort(np.column_stack([values, np.full(len(values), np.inf)]), axis=1)
    cutoff = ranked[np.arange(len(values)), np.minimum(count, k) - 1]
    top = m.mask & (values <= cutoff[:, None])
    return {
        dataset: {a for a, t in zip(m.algorithms, row) if t}
        for dataset, row in zip(m.datasets, top.tolist())
    }


def _top_cells(t: ErrorTable, top: dict) -> tuple:
    """Presence, test errors and CV errors of ``top``'s (dataset, algorithm)
    pairs, each of shape (pairs, subsets): datasets in ``top``'s order, each
    one's algorithms sorted.  A pair naming what ``t`` does not hold is absent.
    """
    dataset_index = {d: i for i, d in enumerate(t.datasets)}
    algorithm_index = {a: i for i, a in enumerate(t.algorithms)}
    pairs = [
        (dataset_index.get(dataset, -1), algorithm_index.get(algorithm, -1))
        for dataset, algorithms in top.items()
        for algorithm in sorted(algorithms)
    ]
    di, ai = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    known = (di >= 0) & (ai >= 0)
    present = np.zeros((len(pairs), 2), dtype=bool)
    present[known] = t.present[di[known], ai[known]]
    test, cv = np.full((2, len(pairs), 2), np.nan)
    test[known] = t.cubes["test_error"][di[known], ai[known]]
    cv[known] = t.cubes["cv_error"][di[known], ai[known]]
    return present, test, cv


def resample_deltas(t: ErrorTable, top: dict) -> list:
    """|test_error@subset2 - test_error@subset1| per kept (dataset, algorithm)."""
    present, test, _ = _top_cells(t, top)
    both = present.all(axis=1)
    skipped = int((~both).sum())
    if skipped:
        warnings.warn(f"skipped {skipped} pairs with a missing subset record", stacklevel=2)
    return np.abs(test[both, 1] - test[both, 0]).tolist()


def cv_deltas(t: ErrorTable, top: dict) -> list:
    """|test_error - cv_error| per kept record; both subsets contribute."""
    present, test, cv = _top_cells(t, top)
    no_cv = present & np.isnan(cv)
    skipped = int(no_cv.sum())
    if skipped:
        warnings.warn(f"skipped {skipped} records without cv_error", stacklevel=2)
    # row-major: pair by pair, subset 1 before subset 2
    return np.abs(test - cv)[present & ~no_cv].tolist()


def _median(values: list) -> Optional[float]:
    return float(np.median(values)) if values else None


def irrelevance_threshold(t: ErrorTable, k: int = 3) -> ThresholdReport:
    """Compose top-k selection, both delta medians, and their minimum.

    With no usable CV values (degraded mode) the CV median is absent and the
    threshold is the resample median alone.  Even-count medians are the mean
    of the two central values.
    """
    matrix = aggregate_errors(t)
    top = top_k_algorithms(matrix, k)
    res = resample_deltas(t, top)
    cv = cv_deltas(t, top)
    median_res = _median(res)
    median_cv = _median(cv)
    if median_res is None:
        threshold = median_cv
    elif median_cv is None:
        threshold = median_res
    else:
        threshold = min(median_res, median_cv)
    return ThresholdReport(median_res, median_cv, threshold, len(res), len(cv))
