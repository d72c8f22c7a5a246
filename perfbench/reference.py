"""Independent computations the benchmark checks the program's reports against.

Nothing here imports the program. Inputs are re-read from the CSV text the
program received; statistics come from numpy/scipy or from the formulas
themselves. Reports are compared within their printed precision (6
significant digits).
"""
from __future__ import annotations

import csv
import io
import math
import re
from fractions import Fraction

import numpy as np
from scipy import special, stats

REL = 1e-5  # a 6-significant-digit print is within 5e-6 of the value


class Mismatch(AssertionError):
    """A report disagrees with the benchmark's own computation."""


def close(printed: str, expected: float, what: str, rel: float = REL, abs_: float = 1e-12):
    got = float(printed)
    if not math.isclose(got, expected, rel_tol=rel, abs_tol=abs_):
        raise Mismatch(f"{what}: report {printed}, expected {expected!r}")


def equal(got, expected, what: str):
    if got != expected:
        raise Mismatch(f"{what}: report {got!r}, expected {expected!r}")


def blocks(text: str) -> list:
    """CSV report split at blank lines into lists of rows; '#' lines dropped."""
    out, current = [], []
    for line in text.split("\n"):
        if not line.strip():
            if current:
                out.append(current)
            current = []
        elif not line.startswith("#"):
            current.append(next(csv.reader(io.StringIO(line))))
    if current:
        out.append(current)
    return out


# --- inputs ----------------------------------------------------------------


class ErrorInput:
    """The error table as re-read from its CSV text."""

    def __init__(self, text: str):
        rows = [line.split(",") for line in text.split("\n") if line and not line.startswith("#")]
        self.records = {}
        for dataset, algorithm, subset, test, cv in rows[1:]:
            self.records[dataset, algorithm, int(subset)] = (float(test), float(cv) if cv else None)
        self.datasets = sorted({k[0] for k in self.records})
        self.algorithms = sorted({k[1] for k in self.records})
        shape = (len(self.datasets), len(self.algorithms))
        self.values = np.full(shape, np.nan)
        for d, dataset in enumerate(self.datasets):
            for a, algorithm in enumerate(self.algorithms):
                r1 = self.records.get((dataset, algorithm, 1))
                r2 = self.records.get((dataset, algorithm, 2))
                if r1 and r2:
                    self.values[d, a] = (r1[0] + r2[0]) / 2.0
        self.mask = ~np.isnan(self.values)


def timing_matrix(text: str) -> tuple:
    """(algorithms, subjects x algorithms train_test_seconds) from a timing CSV."""
    rows = [line.split(",") for line in text.split("\n") if line and not line.startswith("#")]
    cells = {(d, int(s), a): float(t) for d, a, s, t, _h, _n in rows[1:]}
    algorithms = sorted({k[2] for k in cells})
    subjects = sorted({k[:2] for k in cells})
    values = np.array([[cells[s + (a,)] for a in algorithms] for s in subjects])
    return algorithms, values


# --- ranks -----------------------------------------------------------------


def round_half_up_3(x: float) -> Fraction:
    """x's shortest decimal repr rounded half-up to 3 decimals, exactly."""
    return Fraction(math.floor(Fraction(repr(float(x))) * 1000 + Fraction(1, 2)), 1000)


def dense_ranks(values: np.ndarray) -> np.ndarray:
    """Dense ranks by row of the 3-decimal-rounded values; NaN where missing.

    Rows with fewer than two present values are left unranked.
    """
    out = np.full(values.shape, np.nan)
    for d, row in enumerate(values):
        present = ~np.isnan(row)
        if present.sum() < 2:
            continue
        rounded = [round_half_up_3(v) for v in row[present]]
        level = {v: r for r, v in enumerate(sorted(set(rounded)), start=1)}
        out[d, present] = [level[v] for v in rounded]
    return out


def average_ranks(values: np.ndarray) -> np.ndarray:
    """scipy's average ranks by row over present values; NaN where missing."""
    out = np.full(values.shape, np.nan)
    for d, row in enumerate(values):
        present = ~np.isnan(row)
        if present.sum() >= 2:
            out[d, present] = stats.rankdata(row[present])
    return out


def check_rank_summary(rows: list, algorithms, ranks: np.ndarray, what: str):
    """Rows (algorithm, mean_rank, top_count), best first, against ``ranks``."""
    equal(rows[0], ["algorithm", "mean_rank", "top_count"], f"{what} header")
    expected = {}
    for a, name in enumerate(algorithms):
        col = ranks[:, a][~np.isnan(ranks[:, a])]
        expected[name] = (float(col.mean()), int((col == 1.0).sum()))
    equal(sorted(r[0] for r in rows[1:]), sorted(expected), f"{what} algorithms")
    previous = -math.inf
    for name, mean_rank, top in rows[1:]:
        close(mean_rank, expected[name][0], f"{what} mean rank of {name}")
        equal(int(top), expected[name][1], f"{what} top count of {name}")
        if expected[name][0] < previous - 1e-9:
            raise Mismatch(f"{what}: rows not ordered by mean rank at {name}")
        previous = expected[name][0]


def histogram(dense: np.ndarray) -> np.ndarray:
    n_rank = int(np.nanmax(dense))
    counts = np.zeros((dense.shape[1], n_rank), dtype=int)
    for a in range(dense.shape[1]):
        col = dense[:, a]
        for r in col[~np.isnan(col)]:
            counts[a, int(r) - 1] += 1
    return counts


def check_heatmap_csv(text: str, algorithms, counts: np.ndarray):
    rows = blocks(text)[0]
    equal(rows[0], ["algorithm", "rank", "count"], "heatmap header")
    expected = [
        [name, str(r + 1), str(counts[a, r])]
        for a, name in enumerate(algorithms)
        for r in range(counts.shape[1])
    ]
    equal(rows[1:], expected, "heatmap counts")


_RECT = re.compile(r'<rect [^>]*fill="rgb\((\d+),')


def check_heatmap_svg(text: str, counts: np.ndarray):
    """One cell per (algorithm, rank), darker for more datasets."""
    shades = [int(s) for s in _RECT.findall(text)]
    peak = counts.max()
    expected = [255 - int(round(255 * c / peak)) for c in counts.ravel()]
    equal(shades, expected, "heatmap SVG cell shades")
    if not text.rstrip().endswith("</svg>"):
        raise Mismatch("heatmap SVG is not closed")


# --- Friedman / Nemenyi ------------------------------------------------------


def check_friedman_nemenyi(friedman_rows: list, pair_rows: list, algorithms, ranks, what: str):
    """Friedman row and every Nemenyi p-value against complete-case ``ranks``."""
    complete = ranks[~np.isnan(ranks).any(axis=1)]
    n, k = complete.shape
    mean = complete.mean(axis=0)
    chi2 = 12.0 * n / (k * (k + 1)) * (float((mean**2).sum()) - k * (k + 1) ** 2 / 4.0)
    chi2 = max(chi2, 0.0)
    equal(friedman_rows[0], ["statistic", "dof", "p_value", "n_subjects", "k_treatments"], f"{what} friedman header")
    stat, dof, p, n_subjects, k_treatments = friedman_rows[1]
    close(stat, chi2, f"{what} Friedman statistic", abs_=1e-9)
    close(p, float(stats.chi2.sf(chi2, k - 1)), f"{what} Friedman p-value")
    equal((int(dof), int(n_subjects), int(k_treatments)), (k - 1, n, k), f"{what} Friedman counts")
    equal(pair_rows[0], ["algorithm_a", "algorithm_b", "value", "significant"], f"{what} nemenyi header")
    se = math.sqrt(k * (k + 1) / (6.0 * n))
    index = {name: i for i, name in enumerate(algorithms)}
    i = np.array([index[r[0]] for r in pair_rows[1:]])
    j = np.array([index[r[1]] for r in pair_rows[1:]])
    equal(sorted(zip(i.tolist(), j.tolist())), [(a, b) for a in range(k) for b in range(a + 1, k)], f"{what} nemenyi pairs")
    q = np.abs(mean[i] - mean[j]) / se * math.sqrt(2.0)
    p_ref = stats.studentized_range.sf(q, k, np.inf)
    for row, expected in zip(pair_rows[1:], p_ref):
        close(row[2], float(expected), f"{what} Nemenyi p {row[0]}-{row[1]}", rel=0.0, abs_=1e-6)
        equal(row[3], str(bool(expected < 0.05)), f"{what} significance {row[0]}-{row[1]}")
    return len(pair_rows) - 1


# --- threshold ---------------------------------------------------------------


def check_threshold(rows: list, table: ErrorInput):
    """Both delta medians over the benchmark's own top-3 selection."""
    resample, cv = [], []
    for d, dataset in enumerate(table.datasets):
        present = table.mask[d]
        values = table.values[d][present]
        cutoff = np.sort(values)[min(3, len(values)) - 1]
        names = [a for a, p in zip(table.algorithms, present) if p]
        for name, value in zip(names, values):
            if value > cutoff:
                continue
            (t1, c1), (t2, c2) = table.records[dataset, name, 1], table.records[dataset, name, 2]
            resample.append(abs(t2 - t1))
            cv += [abs(t - c) for t, c in ((t1, c1), (t2, c2)) if c is not None]
    m_res, m_cv = float(np.median(resample)), float(np.median(cv))
    equal(rows[0], ["median_delta_resample", "median_delta_cv", "threshold", "n_pairs_used", "n_cv_values"], "threshold header")
    res_text, cv_text, thr_text, n_pairs, n_cv = rows[1]
    close(res_text, m_res, "median resample delta")
    close(cv_text, m_cv, "median cv delta")
    close(thr_text, min(m_res, m_cv), "threshold")
    equal((int(n_pairs), int(n_cv)), (len(resample), len(cv)), "threshold counts")


# --- MCMC diagnostics (Vehtari, Gelman, Simpson, Carpenter & Buerkner 2021) ---


def _split_chains(x: np.ndarray) -> np.ndarray:
    """(chains, n) -> (2 * chains, n // 2): first and last half of each chain."""
    half = x.shape[1] // 2
    return np.concatenate([x[:, :half], x[:, x.shape[1] - half :]])


def _rank_normalise(x: np.ndarray) -> np.ndarray:
    """Normal scores of the ranks over all chains."""
    r = stats.rankdata(x, axis=None).reshape(x.shape)
    return special.ndtri((r - 0.375) / (x.size + 0.25))


def _rhat(z: np.ndarray) -> float:
    n = z.shape[1]
    w = z.var(axis=1, ddof=1).mean()
    b_over_n = z.mean(axis=1).var(ddof=1)
    return math.sqrt(((n - 1) / n * w + b_over_n) / w)


def _ess(z: np.ndarray) -> float:
    """Multi-chain ESS of a (chains, n) array, Geyer initial monotone sequence."""
    m, n = z.shape
    centred = z - z.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centred, size, axis=1)
    acov = np.fft.irfft(f * np.conjugate(f), size, axis=1)[:, :n] / n
    mean_var = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n + z.mean(axis=1).var(ddof=1)
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # sum pairs rho[2t] + rho[2t+1] while positive, forcing them monotone
    total, prev = 0.0, math.inf
    for t in range(0, n - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        prev = min(prev, pair)
        total += prev
    tau = -1.0 + 2.0 * total
    return m * n / max(tau, 1.0 / math.log10(m * n))


def convergence(chains: np.ndarray) -> tuple:
    """(rank-normalised split-R-hat, bulk ESS) of one (chains, draws) parameter.

    R-hat is the larger of the bulk and the folded (tail) value.
    """
    s = _split_chains(chains)
    z = _rank_normalise(s)
    rhat = max(_rhat(z), _rhat(_rank_normalise(np.abs(s - np.median(s)))))
    return rhat, _ess(z)
