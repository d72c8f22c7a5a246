"""Two-factor hierarchical Bayesian ANOVA with ROPE probabilities.

Model: each present cell y[d,a] is normal around beta + alpha[a] + delta[d]
with common scale sigma0.  beta gets a wide normal prior centered on the data
mean; alpha and delta get zero-centered normal priors whose scales sigma_a,
sigma_d carry Gamma priors parametrized by mode and standard deviation;
sigma0 gets a uniform prior spanning two decades around the data scale.  The
robust variant replaces the normal likelihood with a student-t of sampled
degrees of freedom, implemented through the normal scale-mixture
representation with one latent precision multiplier per cell.

Sampling is component-wise: conjugate normal draws for the location
parameters (vectorized over algorithms and over datasets), univariate slice
sampling for the scale parameters and the degrees of freedom, plus two exact
translation moves that trade mass between the grand mean and each block of
effects to break the additive non-identifiability's slow mixing.
"""
from __future__ import annotations

import concurrent.futures
import io
import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .data import AggregatedMatrix
from .errors import ComputationError, InputError
from .nhst import PairwiseMatrix

DF_PRIOR_RATE = 1.0 / 30.0


def gamma_shape_rate_from_mode_sd(mode: float, sd: float) -> tuple:
    """Shape/rate of the Gamma distribution with the given mode and sd.

    Solves mode = (shape - 1)/rate and sd = sqrt(shape)/rate:
    rate = (mode + sqrt(mode^2 + 4 sd^2)) / (2 sd^2), shape = 1 + mode*rate.
    """
    if mode <= 0 or sd <= 0:
        raise InputError(f"mode and sd must be positive, got mode={mode}, sd={sd}")
    rate = (mode + math.sqrt(mode * mode + 4.0 * sd * sd)) / (2.0 * sd * sd)
    shape = 1.0 + mode * rate
    return shape, rate


@dataclass
class ModelSpec:
    """Fully instantiated priors for one data matrix."""

    variant: str  # "normal" or "robust"
    y_mean: float
    y_sd: float
    sigma0_low: float
    sigma0_high: float
    beta_mean: float
    beta_sd: float
    sigma_effect_shape: float  # shared by the sigma_a and sigma_d priors
    sigma_effect_rate: float
    df_rate: Optional[float] = None  # robust only

    def __post_init__(self):
        if self.variant not in ("normal", "robust"):
            raise InputError(f"unknown model variant: {self.variant!r}")


def build_model(m: AggregatedMatrix, variant: str = "normal") -> ModelSpec:
    """Derive priors from the present cells of the matrix.

    The data sd uses the N-1 denominator.  Degenerate (zero-variance) data
    is rejected because every prior scale derives from it.
    """
    if m.n_algorithms < 2 or m.n_datasets < 2:
        raise InputError("need at least 2 algorithms and 2 datasets")
    y = m.present_values()
    if y.size < 2:
        raise InputError("need at least 2 present cells")
    y_mean = float(y.mean())
    y_sd = float(y.std(ddof=1))
    # the mean of identical floats can carry rounding noise, so also test
    # for literally equal cells rather than trusting sd == 0
    if y_sd == 0.0 or float(y.max()) == float(y.min()):
        raise InputError("zero variance: all present cells are equal")
    shape, rate = gamma_shape_rate_from_mode_sd(y_sd / 2.0, y_sd * 2.0)
    return ModelSpec(
        variant=variant,
        y_mean=y_mean,
        y_sd=y_sd,
        sigma0_low=y_sd / 100.0,
        sigma0_high=y_sd * 10.0,
        beta_mean=y_mean,
        beta_sd=y_sd * 5.0,
        sigma_effect_shape=shape,
        sigma_effect_rate=rate,
        df_rate=DF_PRIOR_RATE if variant == "robust" else None,
    )


@dataclass
class McmcConfig:
    """Chain layout and optional parameter pins.

    Desk-scale defaults; ``paper()`` mirrors the published run (4 chains,
    5000 burn-in, 5000 adaptation, 100000 total kept iterations).  Slice
    widths adapt only during the adaptation phase and are frozen afterwards.
    Pinning a scale parameter (or df) skips its update entirely, which is
    what the analytic sampler oracle and the large-df robust limit use.
    """

    chains: int = 4
    burn_in: int = 1000
    adaptation: int = 1000
    kept: int = 5000
    thinning: int = 1
    fixed_sigma0: Optional[float] = None
    fixed_sigma_a: Optional[float] = None
    fixed_sigma_d: Optional[float] = None
    fixed_df: Optional[float] = None
    n_jobs: int = 1

    @classmethod
    def paper(cls) -> "McmcConfig":
        return cls(chains=4, burn_in=5000, adaptation=5000, kept=25000)

    def validate(self):
        if self.chains < 2:
            raise InputError("diagnostics require at least 2 chains")
        if self.kept < 1:
            raise InputError("kept draws must be >= 1")
        if self.burn_in < 0 or self.adaptation < 0:
            raise InputError("burn_in and adaptation must be >= 0")
        if self.thinning < 1:
            raise InputError("thinning must be >= 1")
        total = self.burn_in + self.adaptation + self.kept * self.thinning
        if total <= self.burn_in:
            raise InputError("total iterations must exceed burn_in")


@dataclass
class ChainDraws:
    """Kept draws of one chain, stored columnwise."""

    beta: np.ndarray  # (n,)
    alpha: np.ndarray  # (n, A)
    delta: np.ndarray  # (n, D)
    sigma0: np.ndarray
    sigma_a: np.ndarray
    sigma_d: np.ndarray
    df: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.beta)


@dataclass
class PosteriorDraws:
    """All chains' kept draws plus the configuration that produced them."""

    variant: str
    algorithms: tuple
    datasets: tuple
    chains: list  # list[ChainDraws], equal lengths
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.algorithms = tuple(self.algorithms)
        self.datasets = tuple(self.datasets)
        lengths = {len(c) for c in self.chains}
        if len(lengths) != 1 or 0 in lengths:
            raise ValueError("chains must have equal nonzero lengths")

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    @property
    def draws_per_chain(self) -> int:
        return len(self.chains[0])

    def pooled_alpha(self) -> np.ndarray:
        """(total_draws, A) alpha draws concatenated across chains."""
        return np.concatenate([c.alpha for c in self.chains], axis=0)

    def centered_alpha(self) -> np.ndarray:
        """Alpha draws recentered to zero mean per draw (identified effects)."""
        pooled = self.pooled_alpha()
        return pooled - pooled.mean(axis=1, keepdims=True)

    def scalar_chains(self) -> dict:
        """name -> (n_chains, n) array for every monitored scalar parameter."""
        out = {"beta": np.stack([c.beta for c in self.chains])}
        for ai, name in enumerate(self.algorithms):
            out[f"alpha[{name}]"] = np.stack([c.alpha[:, ai] for c in self.chains])
        for di, name in enumerate(self.datasets):
            out[f"delta[{name}]"] = np.stack([c.delta[:, di] for c in self.chains])
        out["sigma0"] = np.stack([c.sigma0 for c in self.chains])
        out["sigma_a"] = np.stack([c.sigma_a for c in self.chains])
        out["sigma_d"] = np.stack([c.sigma_d for c in self.chains])
        if self.variant == "robust":
            out["df"] = np.stack([c.df for c in self.chains])
        return out


class _SliceVar:
    """Univariate slice sampler with step-out, shrinkage and width adaptation."""

    def __init__(self, width: float, lower: float = 0.0, upper: float = math.inf):
        self.width = width
        self.lower = lower
        self.upper = upper

    def sample(self, x0: float, logf, rng, adapt: bool) -> float:
        f0 = logf(x0)
        if not math.isfinite(f0):
            raise ComputationError(
                f"non-finite log-density at slice start x={x0!r} (logf={f0!r})"
            )
        logy = f0 - rng.exponential(1.0)
        w = self.width
        left = x0 - w * rng.uniform()
        right = left + w
        # step out, respecting the support bounds
        for _ in range(64):
            if left <= self.lower or logf(max(left, self.lower)) <= logy:
                break
            left -= w
        for _ in range(64):
            if right >= self.upper or logf(min(right, self.upper)) <= logy:
                break
            right += w
        left = max(left, self.lower)
        right = min(right, self.upper)
        # shrinkage
        for _ in range(200):
            x1 = left + (right - left) * rng.uniform()
            if logf(x1) >= logy:
                if adapt:
                    move = abs(x1 - x0)
                    self.width = max(1e-12, 0.9 * self.width + 0.1 * 2.0 * move)
                return x1
            if x1 < x0:
                left = x1
            else:
                right = x1
        raise ComputationError(f"slice shrinkage failed to accept around x={x0!r}")


def _run_chain(spec: ModelSpec, y, a_idx, d_idx, n_alg, n_ds, cfg: McmcConfig, seed):
    rng = np.random.default_rng(seed)
    n = len(y)
    robust = spec.variant == "robust"

    beta = spec.y_mean
    alpha = np.zeros(n_alg)
    delta = np.zeros(n_ds)
    sigma0 = cfg.fixed_sigma0 if cfg.fixed_sigma0 is not None else spec.y_sd
    sigma0 = min(max(sigma0, spec.sigma0_low), spec.sigma0_high)
    sigma_a = cfg.fixed_sigma_a if cfg.fixed_sigma_a is not None else spec.y_sd / 2.0
    sigma_d = cfg.fixed_sigma_d if cfg.fixed_sigma_d is not None else spec.y_sd / 2.0
    df = cfg.fixed_df if cfg.fixed_df is not None else 30.0
    lam = np.ones(n)

    beta_prec0 = 1.0 / spec.beta_sd**2
    eff_shape = spec.sigma_effect_shape
    eff_rate = spec.sigma_effect_rate

    w0 = spec.y_sd / 4.0
    slice_sigma0 = _SliceVar(w0, lower=spec.sigma0_low, upper=spec.sigma0_high)
    scale_floor = spec.y_sd * 1e-9  # keeps 1/s^2 finite in the slice evals
    slice_sigma_a = _SliceVar(w0, lower=scale_floor)
    slice_sigma_d = _SliceVar(w0, lower=scale_floor)
    slice_df = _SliceVar(10.0, lower=1e-6)

    total = cfg.burn_in + cfg.adaptation + cfg.kept * cfg.thinning
    kept_beta = np.empty(cfg.kept)
    kept_alpha = np.empty((cfg.kept, n_alg))
    kept_delta = np.empty((cfg.kept, n_ds))
    kept_sigma0 = np.empty(cfg.kept)
    kept_sigma_a = np.empty(cfg.kept)
    kept_sigma_d = np.empty(cfg.kept)
    kept_df = np.empty(cfg.kept) if robust else None
    kept = 0

    for it in range(total):
        adapt = cfg.burn_in <= it < cfg.burn_in + cfg.adaptation
        inv_s0sq = 1.0 / (sigma0 * sigma0)
        w = lam * inv_s0sq if robust else np.full(n, inv_s0sq)

        # beta | rest
        resid = y - alpha[a_idx] - delta[d_idx]
        prec = w.sum() + beta_prec0
        mean = (np.dot(w, resid) + spec.beta_mean * beta_prec0) / prec
        beta = mean + rng.standard_normal() / math.sqrt(prec)

        # alpha | rest (conditionally independent across algorithms)
        r = y - beta - delta[d_idx]
        sw = np.bincount(a_idx, weights=w, minlength=n_alg)
        swr = np.bincount(a_idx, weights=w * r, minlength=n_alg)
        prec_a = sw + 1.0 / (sigma_a * sigma_a)
        alpha = swr / prec_a + rng.standard_normal(n_alg) / np.sqrt(prec_a)

        # delta | rest
        r = y - beta - alpha[a_idx]
        sw = np.bincount(d_idx, weights=w, minlength=n_ds)
        swr = np.bincount(d_idx, weights=w * r, minlength=n_ds)
        prec_d = sw + 1.0 / (sigma_d * sigma_d)
        delta = swr / prec_d + rng.standard_normal(n_ds) / np.sqrt(prec_d)

        # translation moves: shift mass between beta and each effect block
        # (likelihood-invariant direction, sampled from its exact conditional)
        t_prec = n_alg / sigma_a**2 + beta_prec0
        t_mean = (alpha.sum() / sigma_a**2 + (spec.beta_mean - beta) * beta_prec0) / t_prec
        t = t_mean + rng.standard_normal() / math.sqrt(t_prec)
        beta += t
        alpha -= t
        t_prec = n_ds / sigma_d**2 + beta_prec0
        t_mean = (delta.sum() / sigma_d**2 + (spec.beta_mean - beta) * beta_prec0) / t_prec
        t = t_mean + rng.standard_normal() / math.sqrt(t_prec)
        beta += t
        delta -= t

        resid = y - beta - alpha[a_idx] - delta[d_idx]

        # sigma0 | rest: uniform prior, weighted residual sum of squares
        if cfg.fixed_sigma0 is None:
            ss_w = float(np.dot(lam, resid * resid)) if robust else float(
                np.dot(resid, resid)
            )

            def logf_sigma0(s, _ss=ss_w, _n=n):
                return -_n * math.log(s) - _ss / (2.0 * s * s)

            sigma0 = slice_sigma0.sample(sigma0, logf_sigma0, rng, adapt)

        # sigma_a | rest: Gamma(mode/sd) prior on the scale itself
        if cfg.fixed_sigma_a is None:
            ss_a = float(np.dot(alpha, alpha))

            def logf_sigma_a(s, _ss=ss_a, _k=n_alg):
                return (
                    (eff_shape - 1.0) * math.log(s)
                    - eff_rate * s
                    - _k * math.log(s)
                    - _ss / (2.0 * s * s)
                )

            sigma_a = slice_sigma_a.sample(sigma_a, logf_sigma_a, rng, adapt)

        if cfg.fixed_sigma_d is None:
            ss_d = float(np.dot(delta, delta))

            def logf_sigma_d(s, _ss=ss_d, _k=n_ds):
                return (
                    (eff_shape - 1.0) * math.log(s)
                    - eff_rate * s
                    - _k * math.log(s)
                    - _ss / (2.0 * s * s)
                )

            sigma_d = slice_sigma_d.sample(sigma_d, logf_sigma_d, rng, adapt)

        if robust:
            # latent precision multipliers: conjugate Gamma update
            rate = (df + (resid * resid) / (sigma0 * sigma0)) / 2.0
            lam = rng.gamma((df + 1.0) / 2.0, 1.0 / rate)
            np.clip(lam, 1e-300, None, out=lam)

            if cfg.fixed_df is None:
                s1 = float(np.log(lam).sum())
                s2 = float(lam.sum())

                def logf_df(v, _s1=s1, _s2=s2, _n=n):
                    h = v / 2.0
                    return (
                        _n * (h * math.log(h) - math.lgamma(h))
                        + (h - 1.0) * _s1
                        - h * _s2
                        - v * DF_PRIOR_RATE
                    )

                df = slice_df.sample(df, logf_df, rng, adapt)

        if it >= cfg.burn_in + cfg.adaptation:
            j = it - cfg.burn_in - cfg.adaptation
            if (j + 1) % cfg.thinning == 0:
                kept_beta[kept] = beta
                kept_alpha[kept] = alpha
                kept_delta[kept] = delta
                kept_sigma0[kept] = sigma0
                kept_sigma_a[kept] = sigma_a
                kept_sigma_d[kept] = sigma_d
                if robust:
                    kept_df[kept] = df
                kept += 1

    if not np.isfinite(kept_beta).all():
        raise ComputationError("non-finite draws encountered")
    return ChainDraws(
        kept_beta,
        kept_alpha,
        kept_delta,
        kept_sigma0,
        kept_sigma_a,
        kept_sigma_d,
        kept_df,
    )


def _chain_job(args):
    return _run_chain(*args)


def run_chains(
    spec: ModelSpec,
    data: AggregatedMatrix,
    cfg: McmcConfig = None,
    seed: int = 0,
) -> PosteriorDraws:
    """Sample the posterior with independent chains; reproducible per seed.

    Missing cells contribute no likelihood term.  Each chain draws from its
    own RNG stream derived from the seed, so results do not depend on whether
    chains run sequentially or in parallel.
    """
    if cfg is None:
        cfg = McmcConfig()
    cfg.validate()
    # canonical name order inside the sampler, so reordering the input
    # columns/rows permutes the draws exactly (same seed, same RNG stream)
    perm_a = np.argsort(np.asarray(data.algorithms))
    perm_d = np.argsort(np.asarray(data.datasets))
    values = data.values[np.ix_(perm_d, perm_a)]
    mask = data.mask[np.ix_(perm_d, perm_a)]
    di, ai = np.nonzero(mask)
    y = values[di, ai]
    if y.size == 0:
        raise InputError("no present cells")
    child_seeds = np.random.SeedSequence(seed).spawn(cfg.chains)
    jobs = [
        (spec, y, ai, di, data.n_algorithms, data.n_datasets, cfg, s)
        for s in child_seeds
    ]
    if cfg.n_jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.n_jobs) as pool:
            chains = list(pool.map(_chain_job, jobs))
    else:
        chains = [_chain_job(job) for job in jobs]
    # map effect columns back to the caller's ordering
    inv_a = np.argsort(perm_a)
    inv_d = np.argsort(perm_d)
    chains = [
        replace(c, alpha=c.alpha[:, inv_a], delta=c.delta[:, inv_d]) for c in chains
    ]
    meta = {
        "iterations": cfg.burn_in + cfg.adaptation + cfg.kept * cfg.thinning,
        "burn_in": cfg.burn_in,
        "adaptation": cfg.adaptation,
        "thinning": cfg.thinning,
        "kept": cfg.kept,
        "chains": cfg.chains,
        "seed": seed,
    }
    if cfg.fixed_df is not None:
        meta["fixed_df"] = cfg.fixed_df
    return PosteriorDraws(spec.variant, data.algorithms, data.datasets, chains, meta)


def pairwise_difference_draws(p: PosteriorDraws, i: str, j: str) -> np.ndarray:
    """alpha_i - alpha_j per kept draw, concatenated across chains.

    Differences are invariant to the additive non-identifiability of
    beta + alpha + delta, so they need no recentering.
    """
    if i == j:
        raise InputError("pairwise difference requires two distinct algorithms")
    try:
        ii = p.algorithms.index(i)
        jj = p.algorithms.index(j)
    except ValueError as exc:
        raise InputError(f"unknown algorithm: {exc}") from None
    pooled = p.pooled_alpha()
    return pooled[:, ii] - pooled[:, jj]


def rope_probability_matrix(p: PosteriorDraws, half_width: float) -> PairwiseMatrix:
    """Fraction of pooled draws with |alpha_i - alpha_j| inside the ROPE."""
    if half_width <= 0:
        raise InputError(f"half_width must be positive, got {half_width}")
    pooled = p.pooled_alpha()
    k = pooled.shape[1]
    values = np.full((k, k), np.nan)
    for i in range(k):
        for j in range(i + 1, k):
            diff = pooled[:, i] - pooled[:, j]
            prob = float((np.abs(diff) < half_width).mean())
            values[i, j] = values[j, i] = prob
    return PairwiseMatrix(p.algorithms, values, "rope_prob")


# --- persistence -----------------------------------------------------------

_MAGIC = "#benchstat-draws"
_VERSIONS = ("v1", "v2")


def _chain_matrix(chain: ChainDraws) -> np.ndarray:
    """(n, columns) matrix of one chain in draws-file column order."""
    columns = [chain.beta, chain.alpha, chain.delta, chain.sigma0, chain.sigma_a, chain.sigma_d]
    if chain.df is not None:
        columns.append(chain.df)
    return np.column_stack(columns)


def _chain_from_matrix(rows: np.ndarray, n_alg: int, n_ds: int, robust: bool) -> ChainDraws:
    """Inverse of :func:`_chain_matrix`; the fields are views of ``rows``."""
    s = 1 + n_alg + n_ds
    return ChainDraws(
        rows[:, 0], rows[:, 1 : 1 + n_alg], rows[:, 1 + n_alg : s],
        rows[:, s], rows[:, s + 1], rows[:, s + 2], rows[:, s + 3] if robust else None,
    )


def save_draws(p: PosteriorDraws, path):
    """Write draws to a self-describing binary file (format v2).

    One header line ``#benchstat-draws v2 {json}`` (variant, algorithms,
    datasets, n_chains, draws_per_chain, meta), then one little-endian
    float64 block in C order of shape (n_chains, draws_per_chain, columns),
    with the columns beta, alpha:*, delta:*, sigma0, sigma_a, sigma_d and,
    for the robust variant, df.  The file is written to exactly ``path``,
    whatever its extension, and load_draws reproduces every value exactly.
    """
    header = {
        "variant": p.variant,
        "algorithms": list(p.algorithms),
        "datasets": list(p.datasets),
        "n_chains": p.n_chains,
        "draws_per_chain": p.draws_per_chain,
        "meta": p.meta,
    }
    with open(path, "wb") as fh:
        fh.write(f"{_MAGIC} v2 {json.dumps(header, sort_keys=True)}\n".encode("utf-8"))
        for chain in p.chains:
            fh.write(memoryview(np.ascontiguousarray(_chain_matrix(chain), dtype="<f8")))


def load_draws(path) -> PosteriorDraws:
    """Read back a draws file with exact round-trip.

    The format comes from the version token after the magic, not from the
    file name: v2 is the binary block written by :func:`save_draws`; v1, the
    earlier text format, is still read but no longer written.  An unreadable
    file, a bad header or a block that does not match the header's
    dimensions is an :class:`InputError`.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InputError(f"draws file not found or unreadable: {path} ({exc.strerror})") from None
    with fh:
        magic, _, rest = fh.readline().partition(b" ")
        version, _, text = rest.partition(b" ")
        if magic != _MAGIC.encode():
            raise InputError(f"not a benchstat draws file: {path}")
        version = version.decode("utf-8", "replace")
        if version not in _VERSIONS:
            raise InputError(
                f"draws file {path}: format version {version!r}, expected one of {_VERSIONS}"
            )
        try:
            header = json.loads(text)
            variant = header["variant"]
            algorithms = tuple(header["algorithms"])
            datasets = tuple(header["datasets"])
            n_chains, per_chain = int(header["n_chains"]), int(header["draws_per_chain"])
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(f"draws file {path}: malformed header ({exc!r})") from None
        if variant not in ("normal", "robust") or n_chains < 1 or per_chain < 1:
            raise InputError(
                f"draws file {path}: header has variant {variant!r}, {n_chains} chains and "
                f"{per_chain} draws per chain; expected normal or robust and at least 1 each"
            )
        n_alg, n_ds, robust = len(algorithms), len(datasets), variant == "robust"
        n_cols = 1 + n_alg + n_ds + 3 + robust  # see _chain_matrix
        shape = (n_chains, per_chain, n_cols)
        read = _read_v1_rows if version == "v1" else _read_v2_block
        blocks = read(fh, path, shape)
    chains = [_chain_from_matrix(b, n_alg, n_ds, robust) for b in blocks]
    return PosteriorDraws(variant, algorithms, datasets, chains, header.get("meta", {}))


def _read_v2_block(fh, path, shape: tuple) -> np.ndarray:
    """The float64 block after a v2 header line, checked against ``shape``."""
    want = 8 * math.prod(shape)
    found = os.fstat(fh.fileno()).st_size - fh.tell()
    if found != want:
        raise InputError(
            f"draws file {path}: float64 block has {found} bytes, header wants {want} "
            f"({shape[0]} chains x {shape[1]} draws x {shape[2]} columns x 8)"
        )
    block = np.empty(shape, dtype="<f8")
    fh.readinto(block.data)
    return block


def _read_v1_rows(fh, path, shape: tuple) -> list:
    """Per-chain rows of a v1 text file after its header line (legacy, read-only).

    v1 has a column-header line, then one comma-separated row per draw of
    shortest-roundtrip decimals with a leading chain-index column.
    """
    text = io.TextIOWrapper(fh, encoding="utf-8")
    try:
        text.readline()  # column header
        body = np.loadtxt(text, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InputError(f"draws file {path}: {exc}") from None
    if body.shape[1] != shape[2] + 1:
        raise InputError(f"draws file {path} has {body.shape[1]} columns, want {shape[2] + 1}")
    chains = [body[body[:, 0] == ci, 1:] for ci in range(shape[0])]
    for ci, rows in enumerate(chains):
        if len(rows) != shape[1]:
            raise InputError(
                f"draws file {path}: chain {ci} has {len(rows)} draws, want {shape[1]}"
            )
    return chains
