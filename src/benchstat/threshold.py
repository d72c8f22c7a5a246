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


def top_k_algorithms(m: AggregatedMatrix, k: int) -> np.ndarray:
    """The (datasets, algorithms) mask of each dataset's k smallest present
    aggregated errors, in ``m``'s label order.

    Ties at the k-th boundary are all included, so a row may hold more than k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    values = np.where(m.mask, m.values, np.inf)
    # the k-th smallest present value of each row; a row with at most k keeps them all
    cutoff = np.sort(values, axis=1)[:, :k].max(axis=1, initial=-np.inf)
    return m.mask & (values <= cutoff[:, None])


def _top_cells(t: ErrorTable, top: np.ndarray) -> tuple:
    """Presence, test errors and CV errors of the cells ``top`` selects, each
    of shape (cells, subsets), in row-major order of ``top``."""
    if np.shape(top) != t.present.shape[:2]:
        raise ValueError(f"top has shape {np.shape(top)}, want {t.present.shape[:2]}")
    return t.present[top], t.cubes["test_error"][top], t.cubes["cv_error"][top]


def resample_deltas(t: ErrorTable, top: np.ndarray) -> list:
    """|test_error@subset2 - test_error@subset1| per kept (dataset, algorithm)."""
    present, test, _ = _top_cells(t, top)
    both = present.all(axis=1)
    skipped = int((~both).sum())
    if skipped:
        warnings.warn(f"skipped {skipped} pairs with a missing subset record", stacklevel=2)
    return np.abs(test[both, 1] - test[both, 0]).tolist()


def cv_deltas(t: ErrorTable, top: np.ndarray) -> list:
    """|test_error - cv_error| per kept record; both subsets contribute."""
    present, test, cv = _top_cells(t, top)
    no_cv = present & np.isnan(cv)
    skipped = int(no_cv.sum())
    if skipped:
        warnings.warn(f"skipped {skipped} records without cv_error", stacklevel=2)
    # row-major: cell by cell, subset 1 before subset 2
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
