"""Two-factor hierarchical Bayesian ANOVA with ROPE probabilities.

Model: each present cell y[d,a] is normal around beta + alpha[a] + delta[d]
with common scale sigma0.  beta gets a wide normal prior centered on the data
mean; alpha and delta get zero-centered normal priors whose scales sigma_a,
sigma_d carry Gamma priors parametrized by mode and standard deviation;
sigma0 gets a uniform prior spanning two decades around the data scale.  The
robust variant replaces the normal likelihood with a student-t of sampled
degrees of freedom, implemented through the normal scale-mixture
representation with one latent precision multiplier per cell.

Sampling is blockwise Gibbs: conjugate normal draws of the location
parameters, an exact draw of sigma0 (1/sigma0^2 is Gamma-distributed,
truncated to the prior's range), and exact draws of sigma_a, sigma_d and the
degrees of freedom (rejection from tangent envelopes).  The location draws
take one of two sweeps.  On a complete table under the normal variant (a
balanced design) the grand mean and every effect are drawn jointly and
exactly given the scales, in O(A + D) per sweep, from the table's column
and row means, its grand mean and its within-cell sum of squares.  With
missing cells or the robust variant, each block of effects (vectorized over
algorithms and over datasets) is drawn given the rest, and two exact
translation moves trade mass between the grand mean and each block to break
the additive non-identifiability's slow mixing.  Every update is an exact
draw, so nothing adapts and the adaptation phase acts as more burn-in.  The
cells are held as a dense (datasets x algorithms) matrix in which missing
cells carry zero weight.
"""
from __future__ import annotations

import io
import json
import math
import mmap
import os
import platform
import sys
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
        if self.n_jobs < 1:
            raise InputError(f"n_jobs must be >= 1, got {self.n_jobs!r}")
        for name in _PINS:
            value = getattr(self, name)
            if value is not None and not value > 0:  # NaN fails too
                raise InputError(f"{name} must be > 0, got {value!r}")
        if self.fixed_sigma_a == self.fixed_sigma_d == math.inf:
            # flat priors on both effect means leave their difference unidentified
            raise InputError("fixed_sigma_a and fixed_sigma_d cannot both be inf: the posterior is improper")


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
    columns ``names``: beta, alpha per algorithm, delta per dataset, sigma0,
    sigma_a, sigma_d and, for the robust variant, df.  ``alpha`` and ``delta``
    view its (chains, labels, draws) effects, and ``chains`` holds one
    :class:`ChainDraws` of views of it per chain.
    """

    variant: str
    algorithms: tuple
    datasets: tuple
    block: np.ndarray
    meta: dict = field(default_factory=dict)
    names: list = field(init=False, repr=False)
    alpha: np.ndarray = field(init=False, repr=False)
    delta: np.ndarray = field(init=False, repr=False)
    chains: list = field(init=False, repr=False)

    def __post_init__(self):
        self.algorithms = tuple(self.algorithms)
        self.datasets = tuple(self.datasets)
        self.names = _column_names(self.variant, self.algorithms, self.datasets)
        if self.block.ndim != 3 or self.block.shape[1] != len(self.names) or 0 in self.block.shape:
            raise ValueError(
                f"draws block of shape {self.block.shape} does not fit the labels: want "
                f"(chains >= 1, {len(self.names)}, draws >= 1) for {self.variant} draws"
            )
        a, d = 1 + len(self.algorithms), 1 + len(self.algorithms) + len(self.datasets)
        self.alpha, self.delta = self.block[:, 1:a], self.block[:, a:d]
        self.chains = [ChainDraws(rows[0], alpha.T, delta.T, *rows[d:])
                       for rows, alpha, delta in zip(self.block, self.alpha, self.delta)]

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
        parameter, in column order."""
        return zip(self.names, self.block.swapaxes(0, 1))


def _column_names(variant: str, algorithms, datasets) -> list:
    """The monitored scalar parameters, in draws-block column order."""
    return ["beta", *(f"alpha[{a}]" for a in algorithms), *(f"delta[{d}]" for d in datasets),
            "sigma0", "sigma_a", "sigma_d", *(["df"] if variant == "robust" else [])]


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


def _balanced(spec: ModelSpec, present) -> bool:
    """Whether :func:`_run_chain` takes the balanced sweep: the normal variant
    on a table with every cell present."""
    return spec.variant == "normal" and bool(present.all())


def _cell_moments(y) -> tuple:
    """Grand mean, column and row means less it, and the within-cell sum of
    squares (of ``y`` less that additive fit) of a complete table ``y``."""
    y_bar = float(y.mean())
    col, row = y.mean(axis=0) - y_bar, y.mean(axis=1) - y_bar
    within = y - y_bar - col - row[:, None]
    return y_bar, col, row, float(np.vdot(within, within))


def _centred_effects(effects, dev, means, z, prec_data: float, prec_prior: float) -> float:
    """One exact draw of a balanced block's centred effects, in place.

    Given the scales, effects less their mean are normal on the centred
    subspace with precision prec = prec_data + prec_prior per effect and mean
    k * means (``means`` centred, k = prec_data/prec): the draw is k * means +
    (z - mean(z))/sqrt(prec).  ``dev`` receives means - effects, and the
    return value is its squared norm.
    """
    prec = prec_data + prec_prior
    np.multiply(means, prec_prior / prec, out=dev)  # (1 - k) * means
    np.subtract(z, float(np.add.reduce(z)) / len(z), out=effects)
    effects *= 1.0 / math.sqrt(prec)
    dev -= effects
    np.subtract(means, dev, out=effects)
    return float(dev.dot(dev))


def _run_chain(spec: ModelSpec, y, present, cfg: McmcConfig, seed, kept: ChainDraws, after_sweep=None) -> dict:
    """One chain on the dense (datasets x algorithms) cell matrix ``y``.

    Balanced sweep (the normal variant on a complete table, :func:`_balanced`).
    Given sigma0, sigma_a and sigma_d, the centred effects alpha - mean(alpha)
    and delta - mean(delta) and the triple (beta, mean(alpha), mean(delta))
    are three independent blocks (Roberts & Sahu 1997).  Each block of
    centred effects is drawn by :func:`_centred_effects` from the column (or
    row) means less the grand mean y_bar, with prec_data = D/sigma0^2 (or
    A/sigma0^2).  The triple is three normal priors (precisions beta_prec0,
    A/sigma_a^2 and D/sigma_d^2) tied by y_bar, an observation of their sum s
    with precision n/sigma0^2: s is drawn from its posterior, then mean(delta)
    and mean(alpha) given s, in precisions, so that a zero prior precision (a
    pinned infinite scale) stays finite.  The sum of squares of sigma0 is the
    within-cell part, computed once, plus D |col - centred alpha|^2 + A |row -
    centred delta|^2 + n (y_bar - s)^2.  A sweep is O(A + D).

    General sweep (missing cells or the robust variant).  ``y`` is 0 and the
    latent precisions ``lam`` are 0 on missing cells, so those cells drop out
    of every weighted sum; the normal variant keeps ``lam`` at the 0/1 mask.
    Scaled by sigma0^2, alpha | rest is normal with mean rhs/den and sd
    sigma0/sqrt(den), where den = col_l + sigma0^2/sigma_a^2 and rhs = col_ly
    - beta*col_l - delta @ lam (col_l and col_ly the column sums of lam and
    lam*y); delta | rest is the same with rows for columns.  So each block's
    draw is (rhs + sigma0 sqrt(den) z)/den.  Each rhs is one vector-matrix
    product with an augmented matrix, rebuilt only when ``lam`` changes
    (robust): ``aug_a`` = [col_ly; col_l; lam] ((2 + D) x A) and ``aug_d`` =
    [row_ly; row_l; lam.T] ((2 + A) x D).  The vectors are ``vec_a`` = [-1,
    beta, delta] and ``vec_d`` = [-1, beta, alpha], which give -rhs; delta and
    alpha are views of their tails, so a draw written in place updates the
    vector the other block reads.  Two exact translation moves then trade mass
    between beta and each block of effects.

    Writes the kept draws into the views of ``kept`` and returns the sampler
    counters: proposals per draw of sigma_a, sigma_d and df.  ``after_sweep``,
    when given, is called after every sweep as ``after_sweep(rng, y, lam,
    beta, alpha, delta, sigma0)`` on the chain's own copy of ``y``, which it
    may redraw in place (a joint-distribution test does); the chain then
    recomputes what it derives from ``y``.
    """
    rng = np.random.default_rng(seed)
    normal, gamma = rng.standard_normal, rng.standard_gamma
    n_ds, n_alg = y.shape
    mask = present.astype(float)
    n = int(present.sum())
    robust = spec.variant == "robust"
    balanced = _balanced(spec, present)
    if after_sweep is not None:
        y = y.copy()

    aug_a, aug_d = np.empty((2 + n_ds, n_alg)), np.empty((2 + n_alg, n_ds))
    vec_a, vec_d = np.zeros(2 + n_ds), np.zeros(2 + n_alg)
    vec_a[0] = vec_d[0] = -1.0
    col_l, lam, row_l = aug_a[1], aug_a[2:], aug_d[1]
    delta, alpha = vec_a[2:], vec_d[2:]
    delta_col = delta[:, None]
    lam[...] = mask
    beta = spec.y_mean
    sigma0 = cfg.fixed_sigma0 if cfg.fixed_sigma0 is not None else spec.y_sd
    sigma0 = min(max(sigma0, spec.sigma0_low), spec.sigma0_high)
    sigma_a = cfg.fixed_sigma_a if cfg.fixed_sigma_a is not None else spec.y_sd / 2.0
    sigma_d = cfg.fixed_sigma_d if cfg.fixed_sigma_d is not None else spec.y_sd / 2.0
    df = cfg.fixed_df if cfg.fixed_df is not None else 30.0
    lam_floor = mask * 1e-300  # keeps log(lam) finite on present cells
    missing = 1.0 - mask  # log(lam + missing) is 0 on missing cells

    beta_mean = spec.beta_mean
    beta_prec0 = 1.0 / spec.beta_sd**2
    eff_shape = spec.sigma_effect_shape
    eff_rate = spec.sigma_effect_rate
    # exact sigma0 | rest: tau = 1/sigma0^2 ~ Gamma((n-1)/2, ss/2) on [tau_lo, tau_hi]
    tau_lo, tau_hi = spec.sigma0_high**-2, spec.sigma0_low**-2

    proposals = {}  # exact draws by rejection: name -> proposals, all iterations

    start = cfg.burn_in + cfg.adaptation
    total = start + cfg.kept * cfg.thinning
    k = 0
    keep_beta, keep_alpha, keep_delta = kept.beta, kept.alpha, kept.delta
    keep_sigma0, keep_sigma_a, keep_sigma_d, keep_df = kept.sigma0, kept.sigma_a, kept.sigma_d, kept.df

    # buffers: one normal per location draw and translation move (on the
    # balanced sweep, per draw of s, mean(delta) and mean(alpha)), each
    # block's -rhs and den, and the balanced sweep's deviations
    z = np.empty(1 + n_alg + n_ds + 2)
    z_effects, z_a, z_d = z[1:-2], z[1 : 1 + n_alg], z[1 + n_alg : -2]
    rhs_a, den_a, rhs_d, den_d = np.empty(n_alg), np.empty(n_alg), np.empty(n_ds), np.empty(n_ds)
    ones_a, ones_d = np.ones(n_alg), np.ones(n_ds)
    # and the cell matrices lam*y and the squared residuals
    ly, r2 = np.empty_like(y), np.empty_like(y)

    def lam_sums():
        np.multiply(lam, y, out=ly)
        ones_d.dot(ly, aug_a[0])
        ones_d.dot(lam, col_l)
        ly.dot(ones_a, aug_d[0])
        lam.dot(ones_a, row_l)
        aug_d[2:] = lam.T
        return float(np.add.reduce(col_l)), float(np.add.reduce(aug_a[0]))

    if balanced:
        y_bar, col_c, row_c, within = _cell_moments(y)
    else:
        sum_l, sum_ly = lam_sums()
    for it in range(total):
        inv_s0sq = 1.0 / (sigma0 * sigma0)
        normal(out=z)

        if balanced:
            # centred effects, then (beta, mean(alpha), mean(delta)) through
            # their sum s and two draws given it, with p_a, p_d the prior
            # precisions of the effect means and e2 = p_a p_d + beta_prec0 (p_a + p_d)
            ss = (within + n_ds * _centred_effects(alpha, rhs_a, col_c, z_a, n_ds * inv_s0sq, sigma_a**-2)
                  + n_alg * _centred_effects(delta, rhs_d, row_c, z_d, n_alg * inv_s0sq, sigma_d**-2))
            p_a, p_d, p_y = n_alg / sigma_a**2, n_ds / sigma_d**2, n * inv_s0sq
            e2 = p_a * p_d + beta_prec0 * (p_a + p_d)
            prec = beta_prec0 * p_a * p_d / e2 + p_y
            s = beta_mean + (p_y * (y_bar - beta_mean) + z.item(0) * math.sqrt(prec)) / prec
            d_bar = (p_a * beta_prec0 * (s - beta_mean) + z.item(-2) * math.sqrt(e2 * (p_a + beta_prec0))) / e2
            a_bar = (beta_prec0 * (s - beta_mean - d_bar) + z.item(-1) * math.sqrt(p_a + beta_prec0)) / (
                p_a + beta_prec0)
            beta = s - a_bar - d_bar
            alpha += a_bar
            delta += d_bar
            ss += n * (y_bar - s) ** 2
        else:
            # beta | rest
            prec = sum_l * inv_s0sq + beta_prec0
            swr = sum_ly - float(col_l.dot(alpha)) - float(row_l.dot(delta))
            beta = (swr * inv_s0sq + beta_mean * beta_prec0) / prec + z.item(0) / math.sqrt(prec)
            vec_a[1] = vec_d[1] = beta

            # alpha | rest (conditionally independent across algorithms), then
            # delta | rest: (sigma0 sqrt(den) z - (-rhs))/den, written in place
            z_effects *= sigma0
            vec_a.dot(aug_a, rhs_a)
            np.add(col_l, (sigma0 / sigma_a) ** 2, out=den_a)
            np.sqrt(den_a, out=alpha)
            alpha *= z_a
            alpha -= rhs_a
            alpha /= den_a
            vec_d.dot(aug_d, rhs_d)
            np.add(row_l, (sigma0 / sigma_d) ** 2, out=den_d)
            np.sqrt(den_d, out=delta)
            delta *= z_d
            delta -= rhs_d
            delta /= den_d

            # translation moves: shift mass between beta and each effect block
            # (likelihood-invariant direction, sampled from its exact conditional)
            t_prec = n_alg / sigma_a**2 + beta_prec0
            t_mean = (float(np.add.reduce(alpha)) / sigma_a**2 + (beta_mean - beta) * beta_prec0) / t_prec
            t = t_mean + z.item(-2) / math.sqrt(t_prec)
            beta += t
            alpha -= t
            t_prec = n_ds / sigma_d**2 + beta_prec0
            t_mean = (float(np.add.reduce(delta)) / sigma_d**2 + (beta_mean - beta) * beta_prec0) / t_prec
            t = t_mean + z.item(-1) / math.sqrt(t_prec)
            beta += t
            delta -= t

            np.subtract(y, beta + alpha, out=r2)
            r2 -= delta_col
            r2 *= r2
            ss = float(np.vdot(lam, r2))

        # sigma0 | rest: uniform prior, exact truncated-Gamma draw of 1/sigma0^2
        if cfg.fixed_sigma0 is None:
            sigma0 = 1.0 / math.sqrt(_truncated_gamma(rng, (n - 1) / 2.0, max(ss, 1e-300) / 2.0, tau_lo, tau_hi))

        # sigma_a, sigma_d | rest: Gamma(mode/sd) prior on the scale itself
        if cfg.fixed_sigma_a is None:
            sigma_a, m = _effect_scale(rng, eff_shape, eff_rate, n_alg, float(alpha.dot(alpha)))
            proposals["sigma_a"] = proposals.get("sigma_a", 0) + m
        if cfg.fixed_sigma_d is None:
            sigma_d, m = _effect_scale(rng, eff_shape, eff_rate, n_ds, float(delta.dot(delta)))
            proposals["sigma_d"] = proposals.get("sigma_d", 0) + m

        if robust:
            # latent precision multipliers: conjugate Gamma update, 0 on missing cells
            gamma((df + 1.0) / 2.0, out=lam)
            lam *= mask / (0.5 * df + (0.5 / (sigma0 * sigma0)) * r2)
            np.maximum(lam, lam_floor, out=lam)
            sum_l, sum_ly = lam_sums()

            # df | lam: c = sum(lam - log lam - 1) over present cells + 2 df_rate
            if cfg.fixed_df is None:
                c = sum_l - float(np.log(lam + missing).sum()) - n + 2.0 * spec.df_rate
                df, m = _degrees_of_freedom(rng, n, c)
                proposals["df"] = proposals.get("df", 0) + m

        if after_sweep is not None:
            after_sweep(rng, y, lam, beta, alpha, delta, sigma0)
            if balanced:
                y_bar, col_c, row_c, within = _cell_moments(y)
            else:
                sum_l, sum_ly = lam_sums()

        if it >= start and (it - start + 1) % cfg.thinning == 0:
            keep_beta[k] = beta
            keep_alpha[k] = alpha
            keep_delta[k] = delta
            keep_sigma0[k] = sigma0
            keep_sigma_a[k] = sigma_a
            keep_sigma_d[k] = sigma_d
            if robust:
                keep_df[k] = df
            k += 1

    for name, values in vars(kept).items():
        if values is not None and not np.isfinite(values).all():
            raise ComputationError(f"non-finite draws of {name} encountered")
    return {name: {"proposals_per_draw": m / total} for name, m in proposals.items()}


_worker_jobs = []  # a forked worker's copy of run_chains' jobs, inherited, never pickled


def _worker_job(c: int) -> dict:
    """Chain ``c`` in a forked worker: its draws land in the shared block,
    only its counters go back."""
    return _run_chain(*_worker_jobs[c])


def run_chains(
    spec: ModelSpec,
    data: AggregatedMatrix,
    cfg: McmcConfig = None,
    seed: int = 0,
    after_sweep=None,
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
    ``meta["data_sha256"]`` the digest of ``data``.  ``after_sweep`` goes to
    every chain's :func:`_run_chain`; forked workers inherit it.
    """
    if cfg is None:
        cfg = McmcConfig()
    cfg.validate()
    if cfg.fixed_sigma0 is not None and not spec.sigma0_low <= cfg.fixed_sigma0 <= spec.sigma0_high:
        raise InputError(
            f"fixed_sigma0={cfg.fixed_sigma0!r} is outside the sigma0 prior range "
            f"[{spec.sigma0_low!r}, {spec.sigma0_high!r}]"
        )
    for name in ("fixed_sigma_a", "fixed_sigma_d"):
        # a finite pin must keep every term the sweeps build from it finite and nonzero, at the
        # sigma0 prior range's ends, for up to every cell, and with both scales pinned to it:
        # p_a * p_d is at least sigma^-4, and the largest product, e2 * (p_a + beta_prec0), at
        # most 6 m^3 with m = cells/sigma^2 + beta_prec0
        sigma = np.float64(getattr(cfg, name) or math.inf)
        with np.errstate(over="ignore", under="ignore"):
            inv, m = sigma**-2, data.mask.size * sigma**-2 + spec.beta_sd**-2
            terms = np.array([sigma * sigma, inv, inv * inv, data.mask.size * inv, 6 * m**3,
                              (spec.sigma0_low / sigma) ** 2, (spec.sigma0_high / sigma) ** 2])
        if sigma < math.inf and not ((terms > 0) & (terms < math.inf)).all():
            raise InputError(f"{name}={getattr(cfg, name)!r} is outside the range where the sampler's terms "
                             "stay finite and nonzero; pin inf for a flat prior")
    # canonical name order inside the sampler, so reordering the input
    # columns/rows permutes the draws exactly (same seed, same RNG stream)
    perm_a = np.argsort(np.asarray(data.algorithms))
    perm_d = np.argsort(np.asarray(data.datasets))
    present = data.mask[np.ix_(perm_d, perm_a)]
    if not present.any():
        raise InputError("no present cells")
    y = np.where(present, data.values[np.ix_(perm_d, perm_a)], 0.0)
    workers = min(cfg.n_jobs, cfg.chains)
    # every ChainDraws field is a view of the block, and the effect draws are
    # column-major, as their readers want
    names = _column_names(spec.variant, data.algorithms, data.datasets)
    block = _draws_block((cfg.chains, len(names), cfg.kept))
    draws = PosteriorDraws(spec.variant, data.algorithms, data.datasets, block)
    child_seeds = np.random.SeedSequence(seed).spawn(cfg.chains)
    jobs = [(spec, y, present, cfg, s, c, after_sweep) for s, c in zip(child_seeds, draws.chains)]
    if workers > 1:
        # imported here, as a one-worker run never needs them
        import concurrent.futures
        import multiprocessing
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        with concurrent.futures.ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_jobs.extend,
            initargs=(jobs,),  # inherited through fork, not pickled
        ) as pool:
            try:
                counters = list(pool.map(_worker_job, range(cfg.chains)))
            except concurrent.futures.BrokenExecutor as exc:
                raise ComputationError(f"a chain's worker process died: {exc}") from None
    else:
        counters = [_run_chain(*job) for job in jobs]
    # map effect rows back to the caller's ordering, one chain at a time;
    # ingest sorts labels, so CLI input is already in canonical order
    if (perm_a != np.arange(len(perm_a))).any() or (perm_d != np.arange(len(perm_d))).any():
        inv_a, inv_d = np.argsort(perm_a), np.argsort(perm_d)
        for alpha, delta in zip(draws.alpha, draws.delta):
            alpha[:] = alpha[inv_a]
            delta[:] = delta[inv_d]
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
    return (p.alpha[:, ii] - p.alpha[:, jj]).ravel()


def rope_probability_matrix(p: PosteriorDraws, half_width: float) -> PairwiseMatrix:
    """Fraction of all chains' draws with |alpha_i - alpha_j| inside the ROPE."""
    if not half_width > 0:  # NaN too
        raise InputError(f"half_width must be positive, got {half_width}")
    k = len(p.algorithms)
    values = np.full((k, k), np.nan)
    for i, j in zip(*np.triu_indices(k, 1)):
        inside = np.count_nonzero(np.abs(p.alpha[:, i] - p.alpha[:, j]) < half_width)
        values[i, j] = values[j, i] = inside / (p.n_chains * p.draws_per_chain)
    return PairwiseMatrix(p.algorithms, values, "rope_prob")


# --- persistence -----------------------------------------------------------

_MAGIC = "#benchstat-draws"
_VERSIONS = ("v1", "v2")


def _draws_block(shape: tuple) -> np.ndarray:
    """Uninitialised float64 array in an anonymous shared mapping.

    Forked workers inherit the mapping and write their chains into it in
    place; and freeing the array unmaps it, so the next block does not sit
    beside memory that malloc kept from the last one.  A block of more
    than ``sys.maxsize`` bytes, which no mapping can hold, is an InputError;
    a mapping the system refuses stays an OSError.
    """
    size = 8 * math.prod(shape)
    if size > sys.maxsize:
        raise InputError(
            f"{shape[0]} chains x {shape[1]} columns x {shape[2]} kept draws of 8 bytes "
            f"is {size} bytes, more than the {sys.maxsize} a draws block can hold"
        )
    return np.frombuffer(mmap.mmap(-1, size), dtype="<f8").reshape(shape)


# save_draws and _read_v2_block walk a block in slices of about 1 MB of draws: a
# (columns, draws) view of it and one reused C-order (draws, columns) buffer
_SLICE_DRAWS = 1 << 17


def _slices(block: np.ndarray):
    """(chain, first draw, view, buffer) of each slice of ``block``, in v2 file order."""
    step = max(1, _SLICE_DRAWS // block.shape[1])
    buf = np.empty((min(step, block.shape[2]), block.shape[1]), dtype="<f8")
    for chain, rows in enumerate(block):
        for first in range(0, block.shape[2], step):
            yield chain, first, rows[:, first : first + step], buf[: block.shape[2] - first]


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
        for _, _, part, rows in _slices(p.block):
            rows[:] = part.T
            fh.write(rows.data)


def load_draws(path) -> PosteriorDraws:
    """Read back a draws file with exact round-trip.

    The format comes from the version token after the magic, not from the
    file name: v2 is the binary block written by :func:`save_draws`; v1, the
    earlier text format, is still read but no longer written.  An unreadable
    file, a bad header or a block that does not match the header's
    dimensions or that holds a NaN or infinite draw is an :class:`InputError`.
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
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise InputError(f"draws file {path}: malformed header (meta {json.dumps(meta)} is not an object)")
        if variant not in ("normal", "robust") or n_chains < 1 or per_chain < 1:
            raise InputError(
                f"draws file {path}: header has variant {variant!r}, {n_chains} chains and "
                f"{per_chain} draws per chain; expected normal or robust and at least 1 each"
            )
        names = _column_names(variant, algorithms, datasets)
        read = _read_v1_rows if version == "v1" else _read_v2_block
        block = read(fh, path, (n_chains, per_chain, len(names)), names)
    return PosteriorDraws(variant, algorithms, datasets, block, meta)


def _check_finite(path, chain: int, draws: np.ndarray, first: int, names: list):
    """Raise InputError naming the first NaN or infinite value of ``draws``
    (draws x columns, the first of them draw ``first`` of ``chain``)."""
    if np.isfinite(draws).all():
        return
    draw, column = np.argwhere(~np.isfinite(draws))[0]
    raise InputError(
        f"draws file {path}: chain {chain}, draw {first + draw} (both counted from 0), "
        f"parameter {names[column]} is {float(draws[draw, column])!r}; every draw must be finite"
    )


def _read_v2_block(fh, path, shape: tuple, names: list) -> np.ndarray:
    """The float64 block after a v2 header, as a (chain, column, draw) block.

    The block is checked against ``shape`` and read by :func:`_slices` into
    the layout that :func:`run_chains` fills, so the loaded effect draws are
    column-major too.  Each slice is checked for non-finite values as it is
    read.
    """
    want = 8 * math.prod(shape)
    found = os.fstat(fh.fileno()).st_size - fh.tell()
    if found != want:
        raise InputError(
            f"draws file {path}: float64 block has {found} bytes, header wants {want} "
            f"({shape[0]} chains x {shape[1]} draws x {shape[2]} columns x 8)"
        )
    block = _draws_block((shape[0], shape[2], shape[1]))
    for chain, first, part, rows in _slices(block):
        fh.readinto(rows.data)
        _check_finite(path, chain, rows, first, names)
        part[:] = rows.T
    return block


def _read_v1_rows(fh, path, shape: tuple, names: list) -> np.ndarray:
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
        _check_finite(path, ci, rows, 0, names)
        columns[:] = rows.T
    return block
