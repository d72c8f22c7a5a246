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
parameters (vectorized over algorithms and over datasets), an exact draw of
sigma0 (1/sigma0^2 is Gamma-distributed, truncated to the prior's range),
exact draws of sigma_a, sigma_d and the degrees of freedom (rejection from
tangent envelopes), plus two exact translation moves that trade mass between
the grand mean and each block of effects to break the additive
non-identifiability's slow mixing.  Every update is an exact draw, so
nothing adapts and the adaptation phase acts as more burn-in.  The cells
are held as a dense (datasets x algorithms) matrix in which missing cells
carry zero weight.
"""
from __future__ import annotations

import io
import json
import math
import mmap
import os
import platform
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
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


_PINS = ("fixed_sigma0", "fixed_sigma_a", "fixed_sigma_d", "fixed_df")  # McmcConfig's fixed scales


@dataclass
class McmcConfig:
    """Chain layout and optional parameter pins.

    Desk-scale defaults; ``paper()`` mirrors the published run (4 chains,
    5000 burn-in, 5000 adaptation, 100000 total kept iterations).  Every
    update is an exact draw, so the adaptation phase is more burn-in.
    Pinning a scale parameter (or df) skips its update entirely, which is
    what the analytic sampler oracle and the large-df robust limit use.
    Up to ``n_jobs`` chains run at once, in forked worker processes; the
    draws do not depend on it.
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
        if self.kept < 2:
            raise InputError("diagnostics require at least 2 kept draws per chain")
        if self.burn_in < 0 or self.adaptation < 0:
            raise InputError("burn_in and adaptation must be >= 0")
        if self.thinning < 1:
            raise InputError("thinning must be >= 1")
        for name in _PINS:
            value = getattr(self, name)
            if value is not None and not value > 0:  # NaN fails too
                raise InputError(f"{name} must be > 0, got {value!r}")


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


@dataclass
class PosteriorDraws:
    """All chains' kept draws plus the configuration that produced them.

    ``block`` is the float64 (chains, columns, draws) array of the draws, its
    columns in draws-file order: beta, alpha per algorithm, delta per
    dataset, sigma0, sigma_a, sigma_d and, for the robust variant, df.
    ``chains`` holds one :class:`ChainDraws` of views of it per chain.
    """

    variant: str
    algorithms: tuple
    datasets: tuple
    block: np.ndarray
    meta: dict = field(default_factory=dict)
    chains: list = field(init=False, repr=False)

    def __post_init__(self):
        self.algorithms = tuple(self.algorithms)
        self.datasets = tuple(self.datasets)
        n_alg, s = len(self.algorithms), 1 + len(self.algorithms) + len(self.datasets)
        robust = self.variant == "robust"
        if self.block.ndim != 3 or self.block.shape[1] != s + 3 + robust or 0 in self.block.shape:
            raise ValueError(
                f"draws block of shape {self.block.shape} does not fit the labels: want "
                f"(chains >= 1, {s + 3 + robust}, draws >= 1) for {self.variant} draws"
            )
        self.chains = [
            ChainDraws(rows[0], rows[1 : 1 + n_alg].T, rows[1 + n_alg : s].T,
                       rows[s], rows[s + 1], rows[s + 2], rows[s + 3] if robust else None)
            for rows in self.block
        ]

    @property
    def n_chains(self) -> int:
        return self.block.shape[0]

    @property
    def draws_per_chain(self) -> int:
        return self.block.shape[2]

    def check_labels(self, m: AggregatedMatrix):
        """Raise InputError unless ``m`` has these draws' labels, in order."""
        if self.algorithms != m.algorithms or self.datasets != m.datasets:
            raise InputError("draws and data matrix label mismatch")

    def check_source(self, m: AggregatedMatrix):
        """Raise InputError unless ``m`` has these draws' labels, in order, and
        the digest of the matrix they were sampled from where they record one."""
        self.check_labels(m)
        digest = self.meta.get("data_sha256")
        if digest is not None and digest != _digest(m):
            raise InputError("draws and data matrix value mismatch")

    def scalar_chains(self):
        """(name, (n_chains, n) view of ``block``) for every monitored scalar
        parameter, in column order; a normal block has no df column to pair."""
        names = ["beta", *(f"alpha[{a}]" for a in self.algorithms),
                 *(f"delta[{d}]" for d in self.datasets), "sigma0", "sigma_a", "sigma_d", "df"]
        return zip(names, self.block.swapaxes(0, 1))


def _digest(m: AggregatedMatrix) -> str:
    """SHA-256 of ``m``'s mask and present values, in its label order."""
    import hashlib  # imported here, as only sampling and reading draws need it

    return hashlib.sha256(m.mask.tobytes() + m.values[m.mask].astype("<f8").tobytes()).hexdigest()


def _truncated_gamma(rng, shape: float, rate: float, lo: float, hi: float) -> float:
    """One exact draw of Gamma(shape, rate) truncated to [lo, hi], 0 < lo < hi.

    First one untruncated draw, kept when it lands in [lo, hi] (it is then a
    draw of the truncated law).  Otherwise the inverse CDF, through the upper
    regularised incomplete gamma (the survival function) when the interval
    starts above ``shape``, so that tail probabilities keep their relative
    precision.  When the interval lies so far in a tail that its probability
    underflows, rejection from a linear upper bound of the log-density
    instead (see :func:`_far_tail_gamma`).
    """
    tau = rng.standard_gamma(shape) / rate
    if lo <= tau <= hi:
        return tau
    # scipy.special takes about a quarter second to import and only this
    # fallback needs it, so a run whose draws all land in [lo, hi] skips it
    from scipy import special

    a, b = rate * lo, rate * hi
    if a > shape:
        cdf, inverse = special.gammaincc, special.gammainccinv
    else:
        cdf, inverse = special.gammainc, special.gammaincinv
    f_a, f_b = float(cdf(shape, a)), float(cdf(shape, b))
    if f_a != f_b:
        x = float(inverse(shape, f_a + (f_b - f_a) * rng.random()))
        return min(max(x / rate, lo), hi)
    return _far_tail_gamma(rng, shape, a, b) / rate


def _far_tail_gamma(rng, shape: float, a: float, b: float) -> float:
    """Standard Gamma(shape) truncated to [a, b], by rejection.

    The envelope is exp of a line above g(x) = (shape - 1) log x - x on
    [a, b]: the tangent at the point nearest the mode when g is concave
    (shape >= 1), the chord through both ends when it is convex.  Far in a
    tail, where :func:`_truncated_gamma` calls this, the mass sits within a
    small fraction of the interval end and almost every proposal is accepted.
    """
    def g(x):
        return (shape - 1.0) * math.log(x) - x

    if shape >= 1.0:
        e = min(max(shape - 1.0, a), b)
        slope = (shape - 1.0) / e - 1.0
    else:
        e = a
        slope = (g(b) - g(a)) / (b - a)
    width = b - a
    for _ in range(1000):
        v = rng.random()
        if slope == 0.0:
            x = a + v * width
        else:  # truncated exponential, measured from its denser end
            t = math.log1p(v * math.expm1(-abs(slope) * width)) / abs(slope)
            x = b + t if slope > 0.0 else a - t
        if g(x) - g(e) - slope * (x - e) >= -rng.standard_exponential():
            return x
    raise ComputationError(f"truncated Gamma({shape!r}) draw on [{a!r}, {b!r}] did not accept")


def _effect_scale(rng, shape: float, rate: float, k: int, ss: float) -> tuple:
    """One exact draw of an effect scale s given k effects of sum of squares ss.

    The conditional s^(shape-1-k) exp(-rate*s - ss/(2 s^2)) of a
    Gamma(shape, rate) prior is log-concave in u = log s.  The envelope
    replaces -rate*e^u by its tangent at the mode s0, so that 1/s^2 ~
    Gamma((k - shape + rate*s0)/2, rate ss/2), and a proposal s = s0*x is
    kept with probability exp(-rate*s0*(x - 1 - log x)) (Devroye 1986,
    ch. VII; Gilks & Wild 1992).  Past rate*s0 = 1e30, where the conditional
    is a few ulps wide around its mode, the draw is its normal approximation
    there instead.  Returns the draw and the number of proposals it took.
    """
    a = k - shape
    ss = max(ss, 1e-300)  # all-zero effects leave the mode at 0
    # the mode is the positive root of p(s) = rate s^3 + a s^2 - ss; p is
    # increasing and convex right of it, where Newton descends to the root
    if a > 0.0:
        s0 = min(math.sqrt(ss / a), (ss / rate) ** (1.0 / 3.0))
    else:
        s0 = -a / rate + (ss / rate) ** (1.0 / 3.0)
    for _ in range(100):
        step = ((rate * s0 + a) * s0 * s0 - ss) / ((3.0 * rate * s0 + 2.0 * a) * s0)
        s0 -= step
        if step <= 1e-10 * s0:
            break
    r0 = rate * s0
    if r0 > 1e30:
        # the conditional's sd in u is 1/sqrt(3 r0 + 2a), a few ulps or less,
        # so the acceptance test below would weigh rounding noise by r0; the
        # normal approximation at the mode is exact to that width
        return s0 * math.exp(rng.standard_normal() / math.sqrt(3.0 * r0 + 2.0 * a)), 1
    g_shape = 0.5 * (a + r0)
    for n in range(1, 1001):
        x = math.sqrt(ss / (2.0 * rng.standard_gamma(g_shape))) / s0
        if rng.standard_exponential() >= r0 * (x - 1.0 - math.log(x)):
            return s0 * x, n
    raise ComputationError(
        f"effect scale draw (k={k}, ss={ss!r}) did not accept in 1000 proposals"
    )


def _binet(h: float) -> float:
    """Binet's remainder R(h) = lgamma(h) - (h - 1/2) log h + h - log(2 pi)/2."""
    return math.lgamma(h) - (h - 0.5) * math.log(h) + h - 0.5 * math.log(2.0 * math.pi)


def _binet_slopes(h: float) -> tuple:
    """R'(h) and R''(h) of Binet's remainder (:func:`_binet`), h > 0.

    R'(h) = psi(h) - log h + 1/(2h) and R''(h) = psi'(h) - 1/h - 1/(2h^2).
    The digamma and trigamma recurrences shift h up to x >= 10, where the
    asymptotic series, free of cancellation, are good to about 1e-15.
    """
    x, d1, d2 = h, 0.0, 0.0
    while x < 10.0:
        d1 += 1.0 / x
        d2 += 1.0 / (x * x)
        x += 1.0
    u = 1.0 / (x * x)
    # coefficients -B_2k/(2k) and B_2k, k = 1..6, of the Bernoulli numbers B_2k
    r1 = -u * (1 / 12 - u * (1 / 120 - u * (1 / 252 - u * (
        1 / 240 - u * (1 / 132 - u * 691 / 32760)))))
    r2 = u / x * (1 / 6 - u * (1 / 30 - u * (1 / 42 - u * (
        1 / 30 - u * (5 / 66 - u * 691 / 2730)))))
    if x != h:  # psi(h) = psi(x) - d1 and psi'(h) = psi'(x) + d2
        r1 += math.log(x / h) - 0.5 / x + 0.5 / h - d1
        r2 += 1.0 / x + 0.5 * u + d2 - 1.0 / h - 0.5 / (h * h)
    return r1, r2


def _degrees_of_freedom(rng, n: int, c: float) -> tuple:
    """One exact draw of the student-t df given n latent precisions lam.

    With h = df/2 and c = sum(lam - log lam - 1) + 2 df_rate > 0, the
    conditional of h is h^(n/2) exp(-c h - n R(h)), R Binet's remainder.  R
    is convex, so the tangent of -n R at h0 lies above it: the envelope is
    Gamma(n/2 + 1, c + n R'(h0)), and a proposal h is kept with probability
    exp(-n [R(h) - R(h0) - R'(h0) (h - h0)]) (Devroye 1986, ch. VII).  h0 is
    the mode, where that rate is n/(2 h0).  Returns the draw and the number
    of proposals it took.
    """
    # g'(h) = n/(2h) - c - n R'(h) is decreasing and convex, and positive at
    # n/(2c) (as log h - psi(h) > 1/(2h)): Newton climbs from there to the mode
    h0 = n / (2.0 * c)
    for _ in range(100):
        r1, r2 = _binet_slopes(h0)
        step = (n / (2.0 * h0) - c - n * r1) / (n / (2.0 * h0 * h0) + n * r2)
        if step <= 1e-3 * h0:  # then the rate below is still above n/(2 h0) (1 - 2e-3)
            break
        h0 += step
    rate = c + n * r1
    shape = 0.5 * n + 1.0
    b0 = _binet(h0)
    for m in range(1, 1001):
        h = rng.standard_gamma(shape) / rate
        if rng.standard_exponential() >= n * (_binet(h) - b0 - r1 * (h - h0)):
            return 2.0 * h, m
    raise ComputationError(
        f"degrees-of-freedom draw (n={n}, c={c!r}) did not accept in 1000 proposals"
    )


def _run_chain(spec: ModelSpec, y, present, cfg: McmcConfig, seed, kept: ChainDraws) -> dict:
    """One chain on the dense (datasets x algorithms) cell matrix ``y``.

    ``y`` is 0 and the latent precisions ``lam`` are 0 on missing cells, so
    those cells drop out of every weighted sum; the normal variant keeps
    ``lam`` at the 0/1 mask.  With W = lam / sigma0^2, the location updates
    need the row and column sums of W and W*y and the matrix-vector products
    ``delta @ W`` and ``W @ alpha``: they are taken of ``lam`` (its sums are
    recomputed only when ``lam`` changes) and scaled by 1/sigma0^2.  Writes
    the kept draws into the views of ``kept`` and returns the sampler
    counters: proposals per draw of sigma_a, sigma_d and df.
    """
    rng = np.random.default_rng(seed)
    n_ds, n_alg = y.shape
    mask = present.astype(float)
    n = int(present.sum())
    robust = spec.variant == "robust"

    beta = spec.y_mean
    alpha = np.zeros(n_alg)
    delta = np.zeros(n_ds)
    sigma0 = cfg.fixed_sigma0 if cfg.fixed_sigma0 is not None else spec.y_sd
    sigma0 = min(max(sigma0, spec.sigma0_low), spec.sigma0_high)
    sigma_a = cfg.fixed_sigma_a if cfg.fixed_sigma_a is not None else spec.y_sd / 2.0
    sigma_d = cfg.fixed_sigma_d if cfg.fixed_sigma_d is not None else spec.y_sd / 2.0
    df = cfg.fixed_df if cfg.fixed_df is not None else 30.0
    lam = mask
    lam_floor = mask * 1e-300  # keeps log(lam) finite on present cells
    missing = 1.0 - mask  # log(lam + missing) is 0 on missing cells

    beta_prec0 = 1.0 / spec.beta_sd**2
    eff_shape = spec.sigma_effect_shape
    eff_rate = spec.sigma_effect_rate
    # exact sigma0 | rest: tau = 1/sigma0^2 ~ Gamma((n-1)/2, ss/2) on [tau_lo, tau_hi]
    tau_lo, tau_hi = spec.sigma0_high**-2, spec.sigma0_low**-2

    proposals = {}  # exact draws by rejection: name -> proposals, all iterations

    total = cfg.burn_in + cfg.adaptation + cfg.kept * cfg.thinning
    k = 0

    ones_a, ones_d = np.ones(n_alg), np.ones(n_ds)

    def lam_sums():
        ly = lam * y
        col_l, col_ly = np.dot(ones_d, lam), np.dot(ones_d, ly)
        return col_l, np.dot(lam, ones_a), col_ly, np.dot(ly, ones_a), col_l.sum(), col_ly.sum()

    col_l, row_l, col_ly, row_ly, sum_l, sum_ly = lam_sums()
    for it in range(total):
        inv_s0sq = 1.0 / (sigma0 * sigma0)
        z = rng.standard_normal(1 + n_alg + n_ds + 2)

        # beta | rest
        prec = sum_l * inv_s0sq + beta_prec0
        swr = sum_ly - np.dot(col_l, alpha) - np.dot(row_l, delta)
        mean = (swr * inv_s0sq + spec.beta_mean * beta_prec0) / prec
        beta = float(mean + z[0] / math.sqrt(prec))

        # alpha | rest (conditionally independent across algorithms)
        prec_a = col_l * inv_s0sq + 1.0 / (sigma_a * sigma_a)
        swr_a = (col_ly - beta * col_l - np.dot(delta, lam)) * inv_s0sq
        alpha = swr_a / prec_a + z[1 : 1 + n_alg] / np.sqrt(prec_a)

        # delta | rest
        prec_d = row_l * inv_s0sq + 1.0 / (sigma_d * sigma_d)
        swr_d = (row_ly - beta * row_l - np.dot(lam, alpha)) * inv_s0sq
        delta = swr_d / prec_d + z[1 + n_alg : -2] / np.sqrt(prec_d)

        # translation moves: shift mass between beta and each effect block
        # (likelihood-invariant direction, sampled from its exact conditional)
        t_prec = n_alg / sigma_a**2 + beta_prec0
        t_mean = (alpha.sum() / sigma_a**2 + (spec.beta_mean - beta) * beta_prec0) / t_prec
        t = float(t_mean + z[-2] / math.sqrt(t_prec))
        beta += t
        alpha -= t
        t_prec = n_ds / sigma_d**2 + beta_prec0
        t_mean = (delta.sum() / sigma_d**2 + (spec.beta_mean - beta) * beta_prec0) / t_prec
        t = float(t_mean + z[-1] / math.sqrt(t_prec))
        beta += t
        delta -= t

        resid = y - (beta + alpha) - delta[:, None]
        r2 = resid * resid

        # sigma0 | rest: uniform prior, exact truncated-Gamma draw of 1/sigma0^2
        if cfg.fixed_sigma0 is None:
            ss = max(float(np.vdot(lam, r2)), 1e-300)
            sigma0 = 1.0 / math.sqrt(_truncated_gamma(rng, (n - 1) / 2.0, ss / 2.0, tau_lo, tau_hi))

        # sigma_a, sigma_d | rest: Gamma(mode/sd) prior on the scale itself
        if cfg.fixed_sigma_a is None:
            sigma_a, m = _effect_scale(rng, eff_shape, eff_rate, n_alg, float(np.dot(alpha, alpha)))
            proposals["sigma_a"] = proposals.get("sigma_a", 0) + m
        if cfg.fixed_sigma_d is None:
            sigma_d, m = _effect_scale(rng, eff_shape, eff_rate, n_ds, float(np.dot(delta, delta)))
            proposals["sigma_d"] = proposals.get("sigma_d", 0) + m

        if robust:
            # latent precision multipliers: conjugate Gamma update, 0 on missing cells
            scale = mask / (0.5 * df + (0.5 / (sigma0 * sigma0)) * r2)
            lam = rng.standard_gamma((df + 1.0) / 2.0, y.shape) * scale
            np.maximum(lam, lam_floor, out=lam)
            col_l, row_l, col_ly, row_ly, sum_l, sum_ly = lam_sums()

            # df | lam: c = sum(lam - log lam - 1) over present cells + 2 df_rate
            if cfg.fixed_df is None:
                c = float(sum_l) - float(np.log(lam + missing).sum()) - n + 2.0 * spec.df_rate
                df, m = _degrees_of_freedom(rng, n, c)
                proposals["df"] = proposals.get("df", 0) + m

        if it >= cfg.burn_in + cfg.adaptation:
            j = it - cfg.burn_in - cfg.adaptation
            if (j + 1) % cfg.thinning == 0:
                kept.beta[k] = beta
                kept.alpha[k] = alpha
                kept.delta[k] = delta
                kept.sigma0[k] = sigma0
                kept.sigma_a[k] = sigma_a
                kept.sigma_d[k] = sigma_d
                if robust:
                    kept.df[k] = df
                k += 1

    for name, values in vars(kept).items():
        if values is not None and not np.isfinite(values).all():
            raise ComputationError(f"non-finite draws of {name} encountered")
    return {name: {"proposals_per_draw": m / total} for name, m in proposals.items()}


_worker_jobs = []  # a forked worker's copy of run_chains' jobs, inherited, never pickled


def _set_worker_jobs(jobs):
    global _worker_jobs
    _worker_jobs = jobs


def _worker_job(c: int) -> dict:
    """Chain ``c`` in a forked worker: its draws land in the shared block,
    only its counters go back."""
    return _run_chain(*_worker_jobs[c])


def run_chains(
    spec: ModelSpec,
    data: AggregatedMatrix,
    cfg: McmcConfig = None,
    seed: int = 0,
) -> PosteriorDraws:
    """Sample the posterior with independent chains; reproducible per seed.

    Missing cells contribute no likelihood term.  Each chain draws from its
    own RNG stream derived from the seed, so results do not depend on whether
    chains run sequentially or in parallel, nor on how many chains run.
    ``min(cfg.n_jobs, cfg.chains)`` forked workers write their chains into one
    shared block; where ``fork`` is unavailable the chains run one after
    another.  ``meta["slice"]`` holds, per chain, the proposals per draw of
    every sampled sigma_a, sigma_d and df, ``meta["versions"]`` the
    benchstat, numpy and Python versions that drew them, and
    ``meta["data_sha256"]`` the digest of ``data``.
    """
    if cfg is None:
        cfg = McmcConfig()
    cfg.validate()
    if cfg.fixed_sigma0 is not None and not spec.sigma0_low <= cfg.fixed_sigma0 <= spec.sigma0_high:
        raise InputError(
            f"fixed_sigma0={cfg.fixed_sigma0!r} is outside the sigma0 prior range "
            f"[{spec.sigma0_low!r}, {spec.sigma0_high!r}]"
        )
    # canonical name order inside the sampler, so reordering the input
    # columns/rows permutes the draws exactly (same seed, same RNG stream)
    perm_a = np.argsort(np.asarray(data.algorithms))
    perm_d = np.argsort(np.asarray(data.datasets))
    present = data.mask[np.ix_(perm_d, perm_a)]
    if not present.any():
        raise InputError("no present cells")
    y = np.where(present, data.values[np.ix_(perm_d, perm_a)], 0.0)
    n_ds, n_alg = y.shape
    robust = spec.variant == "robust"
    workers = min(cfg.n_jobs, cfg.chains)
    # every ChainDraws field is a view of the block, and the effect draws are
    # column-major, as their readers want
    block = _draws_block((cfg.chains, 1 + n_alg + n_ds + 3 + robust, cfg.kept))
    draws = PosteriorDraws(spec.variant, data.algorithms, data.datasets, block)
    child_seeds = np.random.SeedSequence(seed).spawn(cfg.chains)
    jobs = [(spec, y, present, cfg, s, c) for s, c in zip(child_seeds, draws.chains)]
    if workers > 1:
        # imported here, as a one-worker run never needs them
        import concurrent.futures
        import multiprocessing
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        with concurrent.futures.ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_set_worker_jobs,
            initargs=(jobs,),  # inherited through fork, not pickled
        ) as pool:
            try:
                counters = list(pool.map(_worker_job, range(cfg.chains)))
            except concurrent.futures.BrokenExecutor as exc:
                raise ComputationError(f"a chain's worker process died: {exc}") from None
    else:
        counters = [_run_chain(*job) for job in jobs]
    # map effect rows back to the caller's ordering, one chain at a time
    inv_a = 1 + np.argsort(perm_a)
    inv_d = 1 + n_alg + np.argsort(perm_d)
    for rows in block:
        rows[1 : 1 + n_alg] = rows[inv_a]
        rows[1 + n_alg : 1 + n_alg + n_ds] = rows[inv_d]
    draws.meta = {
        "iterations": cfg.burn_in + cfg.adaptation + cfg.kept * cfg.thinning,
        "burn_in": cfg.burn_in,
        "adaptation": cfg.adaptation,
        "thinning": cfg.thinning,
        "kept": cfg.kept,
        "chains": cfg.chains,
        "seed": seed,
        "data_sha256": _digest(data),
        "slice": counters,
        # numpy may change Generator streams between releases, so a seed
        # reproduces these draws only under the same versions
        "versions": {
            "benchstat": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    for pin in _PINS:
        if getattr(cfg, pin) is not None:
            draws.meta[pin] = getattr(cfg, pin)
    return draws


def pairwise_difference_draws(p: PosteriorDraws, i: str, j: str) -> np.ndarray:
    """alpha_i - alpha_j per kept draw, chain after chain.

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
    return (p.block[:, 1 + ii] - p.block[:, 1 + jj]).ravel()


def rope_probability_matrix(p: PosteriorDraws, half_width: float) -> PairwiseMatrix:
    """Fraction of all chains' draws with |alpha_i - alpha_j| inside the ROPE."""
    if not half_width > 0:  # NaN too
        raise InputError(f"half_width must be positive, got {half_width}")
    k = len(p.algorithms)
    values = np.full((k, k), np.nan)
    for i, j in zip(*np.triu_indices(k, 1)):
        inside = np.count_nonzero(np.abs(p.block[:, 1 + i] - p.block[:, 1 + j]) < half_width)
        values[i, j] = values[j, i] = inside / (p.n_chains * p.draws_per_chain)
    return PairwiseMatrix(p.algorithms, values, "rope_prob")


# --- persistence -----------------------------------------------------------

_MAGIC = "#benchstat-draws"
_VERSIONS = ("v1", "v2")


def _draws_block(shape: tuple) -> np.ndarray:
    """Uninitialised float64 array in an anonymous shared mapping.

    Forked workers inherit the mapping and write their chains into it in
    place; and freeing the array unmaps it, so the next block does not sit
    beside memory that malloc kept from the last one.
    """
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype="<f8").reshape(shape)


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
        for chain in p.block:
            fh.write(memoryview(np.ascontiguousarray(chain.T, dtype="<f8")))


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
        n_cols = 1 + len(algorithms) + len(datasets) + 3 + (variant == "robust")
        read = _read_v1_rows if version == "v1" else _read_v2_block
        block = read(fh, path, (n_chains, per_chain, n_cols))
    return PosteriorDraws(variant, algorithms, datasets, block, header.get("meta", {}))


def _read_v2_block(fh, path, shape: tuple) -> np.ndarray:
    """The float64 block after a v2 header, as a (chain, column, draw) block.

    The block is checked against ``shape`` and read a slice of draws at a
    time into the layout that :func:`run_chains` fills, so the loaded effect
    draws are column-major too.
    """
    want = 8 * math.prod(shape)
    found = os.fstat(fh.fileno()).st_size - fh.tell()
    if found != want:
        raise InputError(
            f"draws file {path}: float64 block has {found} bytes, header wants {want} "
            f"({shape[0]} chains x {shape[1]} draws x {shape[2]} columns x 8)"
        )
    n_chains, per_chain, n_cols = shape
    block = _draws_block((n_chains, n_cols, per_chain))
    step = max(1, (1 << 17) // n_cols)  # draws per read: about 1 MB
    buf = np.empty((min(step, per_chain), n_cols), dtype="<f8")
    for rows in block:
        for start in range(0, per_chain, step):
            part = buf[: min(step, per_chain - start)]
            fh.readinto(part.data)
            rows[:, start : start + len(part)] = part.T
    return block


def _read_v1_rows(fh, path, shape: tuple) -> np.ndarray:
    """The (chain, column, draw) block of the rows of a v1 text file after its
    header line (legacy, read-only).

    v1 has a column-header line, then one comma-separated row per draw of
    shortest-roundtrip decimals with a leading chain-index column.
    """
    text = io.TextIOWrapper(fh, encoding="utf-8")
    try:
        text.readline()  # column header
        body = np.loadtxt(text, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InputError(f"draws file {path}: {exc}") from None
    finally:
        text.detach()  # ``load_draws`` closes the file, not the collected wrapper
    if body.shape[1] != shape[2] + 1:
        raise InputError(f"draws file {path} has {body.shape[1]} columns, want {shape[2] + 1}")
    if len(body) != shape[0] * shape[1]:
        raise InputError(
            f"draws file {path} has {len(body)} draws, header wants {shape[0] * shape[1]} "
            f"({shape[0]} chains x {shape[1]} draws)"
        )
    block = _draws_block((shape[0], shape[2], shape[1]))
    for ci, columns in enumerate(block):
        rows = body[body[:, 0] == ci, 1:]
        if len(rows) != shape[1]:
            raise InputError(
                f"draws file {path}: chain {ci} has {len(rows)} draws, want {shape[1]}"
            )
        columns[:] = rows.T
    return block
