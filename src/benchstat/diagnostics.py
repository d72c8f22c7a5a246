"""Convergence diagnostics and posterior predictive model checking."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .banova import _SLICE_DRAWS, PosteriorDraws
from .data import AggregatedMatrix
from .errors import InputError


def psrf(chains, split: bool = False) -> Optional[float]:
    """Gelman-Rubin potential scale reduction factor of one scalar parameter.

    ``chains`` is an (m, n) array-like of m chains of length n.  The base
    estimator is sqrt(Var+/W) with Var+ = ((n-1)/n) W + B/n; ``split``
    halves each chain first.  Constant chains make the ratio 0/0, so the
    result is None (undefined) rather than NaN.
    """
    x = np.asarray(chains, dtype=float)
    if split and x.ndim == 2:
        half = x.shape[1] // 2
        x = np.concatenate([x[:, :half], x[:, half : 2 * half]], axis=0)
    _check_chains(x, "psrf")
    return _defined(_moments(x[None])[0][0])


def _check_chains(x: np.ndarray, caller: str):
    """R-hat and ESS need a (chains, draws) array of at least 2 chains of at
    least 2 draws each."""
    if x.ndim != 2:
        raise InputError(f"{caller} expects a 2-D (chains x draws) array")
    if x.shape[0] < 2:
        raise InputError(f"{caller} requires at least 2 chains")
    if x.shape[1] < 2:
        raise InputError(f"{caller} requires chains of length >= 2")


# Lags computed as direct products, at every chain length, before a row's
# autocovariances come from the FFT instead: one lag product of 4 x 5,000
# draws costs about 1/64 of the padded FFT pair.  A chain of n draws stops
# at its last lag, n - 1, if that comes first; a row still positive there
# takes the FFT too.
_DIRECT_LAGS = 64


def _fft_tau(x: np.ndarray) -> np.ndarray:
    """Geyer's tau of each centred row, every autocovariance from one FFT pair."""
    n = x.shape[-1]
    size = 1 << (2 * n - 2).bit_length()  # zero-padded to a power of two >= 2n - 1
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[..., :n]
    rho = acov / acov[..., :1]
    # pair sums rho[2m] + rho[2m+1]; truncate at the first nonpositive pair
    pairs = rho[..., 0 : n - 1 : 2] + rho[..., 1:n:2]
    kept = np.logical_and.accumulate(pairs > 0.0, axis=-1)
    return -1.0 + 2.0 * np.where(kept, pairs, 0.0).sum(axis=-1)


def _direct_tau(x: np.ndarray, acov0: np.ndarray) -> np.ndarray:
    """Geyer's tau of each centred row of ``x`` from direct lag products.

    One pair of lags (2m, 2m+1) at a time, and only for the rows whose pair
    sums are all still positive.  Rows still positive after ``_DIRECT_LAGS``
    lags, or after the last pair of a shorter chain, take :func:`_fft_tau`,
    so a chain that does not mix costs one FFT pair more, never O(n^2).
    ``acov0`` holds each row's lag-0 product.
    """
    n = x.shape[-1]
    tau = np.full(len(x), -1.0)
    live = np.arange(len(x))  # rows whose pair sums are all positive so far
    for lag in range(0, min(_DIRECT_LAGS, n - 1), 2):
        pair = (
            np.einsum("ij,ij->i", x[:, : n - lag], x[:, lag:])
            + np.einsum("ij,ij->i", x[:, : n - lag - 1], x[:, lag + 1 :])
        ) / acov0
        up = pair > 0.0
        tau[live[up]] += 2.0 * pair[up]
        if not up.all():
            live, x, acov0 = live[up], x[up], acov0[up]
            if not live.size:
                break
    else:
        tau[live] = _fft_tau(x)
    return tau


def _chain_ess(x: np.ndarray) -> np.ndarray:
    """ESS of each chain (row of ``x``) via Geyer's initial positive sequence,
    with tau from :func:`_direct_tau` at every chain length."""
    x = x - x.mean(axis=-1, keepdims=True)
    acov0 = (x * x).sum(axis=-1)
    if not acov0.all():
        raise InputError("effective sample size undefined for a constant chain")
    return _centred_ess(x, acov0)


def _centred_ess(x: np.ndarray, acov0: np.ndarray) -> np.ndarray:
    """:func:`_chain_ess` of rows already centred, with lag-0 products ``acov0``."""
    n = x.shape[-1]
    tau = _direct_tau(x.reshape(-1, n), acov0.reshape(-1)).reshape(x.shape[:-1])
    return n / np.maximum(tau, 1.0 / n)


def _moments(x: np.ndarray, work: np.ndarray = None) -> tuple:
    """(R-hat, ESS) of each parameter of a (parameters, chains, draws) batch.

    Each chain is centred once, into ``work``, a float64 buffer of shape
    (2,) + ``x.shape`` (allocated here if not given).  W is the mean over
    chains of acov0/(n-1), acov0 a chain's lag-0 product, so that acov0/(n-1)
    is the chain's var(ddof=1); B/n is the var(ddof=1) of the chain means,
    and R-hat sqrt(Var+/W) as in :func:`psrf`.  ESS is the per-chain Geyer
    ESS summed over chains, every chain's tau from one :func:`_direct_tau`
    call, capped at S log10(S) for S draws of a parameter in all, as Stan
    caps it: a short chain whose pair sums never turn nonpositive would
    otherwise report n^2.  R-hat is NaN where every chain of a parameter is
    constant, ESS where any is.
    """
    n_params, m, n = x.shape
    if work is None:
        work = np.empty((2,) + x.shape)
    means = x.mean(axis=-1, keepdims=True)
    x = np.subtract(x, means, out=work[0])  # C order: every reduction runs along a row
    acov0 = np.multiply(x, x, out=work[1]).sum(axis=-1)
    w = (acov0 / (n - 1)).mean(axis=-1)
    var_plus = (n - 1) / n * w + means[..., 0].var(axis=-1, ddof=1)
    r_hat = np.sqrt(np.divide(var_plus, w, out=np.full(n_params, np.nan), where=w != 0.0))
    ess = np.full(n_params, np.nan)
    ok = acov0.all(axis=-1)
    if ok.any():
        if not ok.all():
            x, acov0 = x[ok], acov0[ok]
        ess[ok] = np.minimum(_centred_ess(x, acov0).sum(axis=-1), m * n * np.log10(m * n))
    return r_hat, ess


def _defined(value) -> Optional[float]:
    return None if np.isnan(value) else float(value)


def effective_sample_size(chains) -> float:
    """Total ESS across chains (per-chain autocorrelation, summed), capped at
    S log10(S) for S draws in all (see :func:`_moments`)."""
    x = np.asarray(chains, dtype=float)
    _check_chains(x, "effective_sample_size")
    ess = _defined(_moments(x[None])[1][0])
    if ess is None:
        raise InputError("effective sample size undefined for a constant chain")
    return ess


@dataclass
class DiagnosticRow:
    parameter: str
    r_hat: Optional[float]
    ess: Optional[float]


def diagnostic_report(draws: PosteriorDraws):
    """One (name, R-hat, ESS) row per monitored scalar parameter, computed
    over batches of columns of ``draws.block`` in one reused work buffer."""
    m, n_cols, n = draws.block.shape
    _check_chains(draws.block[:, 0], "psrf")
    # 1 MB of draws per batch, as in the draws file, and at most a sixteenth of the
    # block, so that the batch's work buffers stay small beside the draws
    step = max(1, min(_SLICE_DRAWS // (m * n), n_cols // 16))
    work = np.empty((2, step, m, n))
    rows = []
    for start in range(0, n_cols, step):
        x = draws.block[:, start : start + step].swapaxes(0, 1)
        r_hat, ess = _moments(x, work[:, : len(x)])
        rows += map(DiagnosticRow, draws.names[start : start + step], map(_defined, r_hat), map(_defined, ess))
    return rows


@dataclass
class PpcResult:
    bayesian_p_value: float
    discrepancies: list  # (t_real, t_replicate) pairs
    negative_replicate_fraction: float


def posterior_predictive_check(
    p: PosteriorDraws,
    data: AggregatedMatrix,
    n_draws: int,
    seed: int = 0,
) -> PpcResult:
    """Chi-square-discrepancy posterior predictive check of the normal model.

    For each sampled state, the discrepancy sum((y - nu)^2 / sigma0^2) of the
    real data is paired with the same statistic on a replicate drawn from the
    model at that state.  Replicates are not clamped to [0,1]; the fraction of
    negative replicate cells is reported.  The robust variant is rejected
    because the discrepancy needs the data variance, which the student-t does
    not have at the low degrees of freedom the posterior favors.
    """
    if p.variant != "normal":
        raise InputError(
            "posterior predictive check is defined only for the normal model: "
            "the student-t variance is not defined for degrees of freedom below 2"
        )
    if n_draws < 1:
        raise InputError(f"n_draws must be >= 1, got {n_draws}")
    total = p.n_chains * p.draws_per_chain
    if n_draws > total:
        raise InputError(f"n_draws {n_draws} exceeds total kept draws {total}")
    p.check_labels(data)

    rng = np.random.default_rng(seed)
    di, ai = np.nonzero(data.mask)
    y = data.values[di, ai]
    beta, sigma0 = p.block[:, 0], p.block[:, p.names.index("sigma0")]
    picks = rng.choice(total, size=n_draws, replace=False)
    pairs = []
    greater = 0
    negative = 0
    for idx in picks:
        # pooled draw idx is draw i of chain c; copy each strided effect row once, then gather from it
        c, i = divmod(int(idx), p.draws_per_chain)
        nu = beta[c, i] + p.alpha[c, :, i].copy()[ai] + p.delta[c, :, i].copy()[di]
        s = sigma0[c, i]
        t_real = float(((y - nu) ** 2).sum() / (s * s))
        y_rep = nu + rng.normal(0.0, s, size=nu.shape)
        t_rep = float(((y_rep - nu) ** 2).sum() / (s * s))
        negative += int((y_rep < 0).sum())
        if t_rep >= t_real:
            greater += 1
        pairs.append((t_real, t_rep))
    p_value = greater / n_draws
    neg_frac = negative / (n_draws * len(y))
    return PpcResult(p_value, pairs, neg_frac)
