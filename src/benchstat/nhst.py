"""Friedman omnibus test and Nemenyi all-pairs post-hoc comparisons.

The Nemenyi p-values come from the studentized range distribution with
infinite degrees of freedom, i.e. the range of k independent standard
normals, whose tail is scipy's ``scipy.stats.studentized_range``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .ranks import RankMatrix


@dataclass
class FriedmanResult:
    statistic: float
    dof: int
    p_value: float
    n_subjects: int
    k_treatments: int


@dataclass
class PairwiseMatrix:
    """Symmetric algorithm x algorithm grid of p-values or ROPE probabilities."""

    algorithms: tuple
    values: np.ndarray  # k x k, NaN diagonal
    kind: str  # "nemenyi_p" or "rope_prob"

    def __post_init__(self):
        self.algorithms = tuple(self.algorithms)
        self.values = np.asarray(self.values, dtype=float)
        if self.kind not in ("nemenyi_p", "rope_prob"):
            raise ValueError(f"unknown kind: {self.kind!r}")

    def value(self, a: str, b: str) -> float:
        i = self.algorithms.index(a)
        j = self.algorithms.index(b)
        return float(self.values[i, j])


def chi_square_sf(x: float, k: int) -> float:
    """Upper-tail probability of the chi-square distribution with k dof.

    Evaluated through the regularized upper incomplete gamma function.
    """
    if x < 0:
        raise InputError(f"chi_square_sf requires x >= 0, got {x}")
    if k < 1:
        raise InputError(f"chi_square_sf requires k >= 1, got {k}")
    # imported at the call, so commands without a Friedman test skip it
    from scipy import special

    return float(special.gammaincc(k / 2.0, x / 2.0))


def studentized_range_sf(q, k: int):
    """Upper-tail probability of the range of k independent standard normals.

    This is scipy's studentized range distribution with infinite degrees of
    freedom.  ``q`` may be a scalar (a float is returned) or an array.
    """
    q = np.asarray(q, dtype=float)
    if (q < 0).any():
        raise InputError(f"studentized_range_sf requires q >= 0, got {q}")
    if k < 2:
        raise InputError(f"studentized_range_sf requires k >= 2, got {k}")
    # scipy.stats takes about a second to import and only the Nemenyi
    # post-hoc needs it, so commands that never reach it do not pay for it
    from scipy.stats import studentized_range

    p = studentized_range.sf(q, k, np.inf)
    return float(p) if np.ndim(p) == 0 else p


def _mean_ranks(r: RankMatrix) -> tuple:
    ranks = r.ranks
    if np.isnan(ranks).any():
        raise InputError(
            "friedman/nemenyi require a complete-case rank matrix; "
            "drop incomplete datasets first (RankMatrix.complete_cases)"
        )
    n, k = ranks.shape
    if n < 2:
        raise InputError(f"need at least 2 subjects, got {n}")
    if k < 2:
        raise InputError(f"need at least 2 treatments, got {k}")
    return ranks.mean(axis=0), n, k


def friedman_test(r: RankMatrix) -> FriedmanResult:
    """Friedman chi-square test on a complete-case rank matrix."""
    mean_ranks, n, k = _mean_ranks(r)
    statistic = 12.0 * n / (k * (k + 1)) * (
        float((mean_ranks**2).sum()) - k * (k + 1) ** 2 / 4.0
    )
    statistic = max(0.0, statistic)  # ties can push the sum a hair below zero
    p_value = chi_square_sf(statistic, k - 1)
    return FriedmanResult(statistic, k - 1, p_value, n, k)


def nemenyi_pairwise(r: RankMatrix) -> PairwiseMatrix:
    """All-pairs Nemenyi p-values from mean-rank differences.

    Each pair's statistic is |mean_rank_i - mean_rank_j| divided by
    sqrt(k(k+1)/(6N)) and scaled by sqrt(2) onto the studentized-range scale;
    for k=2 this reduces to the two-sided normal tail 2(1 - Phi(gap*sqrt(N))).
    """
    mean_ranks, n, k = _mean_ranks(r)
    se = np.sqrt(k * (k + 1) / (6.0 * n))
    i, j = np.triu_indices(k, 1)
    q = np.abs(mean_ranks[i] - mean_ranks[j]) / se * np.sqrt(2.0)
    values = np.full((k, k), np.nan)
    values[i, j] = values[j, i] = studentized_range_sf(q, k)
    return PairwiseMatrix(r.algorithms, values, "nemenyi_p")
