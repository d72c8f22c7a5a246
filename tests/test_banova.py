import copy
import dataclasses
import json
import math
import multiprocessing
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from benchstat import (
    AggregatedMatrix,
    InputError,
    McmcConfig,
    build_model,
    effective_sample_size,
    gamma_shape_rate_from_mode_sd,
    load_draws,
    pairwise_difference_draws,
    posterior_predictive_check,
    rope_probability_matrix,
    run_chains,
    save_draws,
)
import benchstat
from benchstat import banova
from benchstat.banova import (
    PosteriorDraws,
    _binet,
    _binet_slopes,
    _column_names,
    _degrees_of_freedom,
    _effect_scale,
    _truncated_gamma,
)
from benchstat.errors import ComputationError

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="chains run serially without fork"
)


def make_matrix(values, algorithms=None, datasets=None):
    values = np.asarray(values, dtype=float)
    n_ds, n_alg = values.shape
    algorithms = algorithms or [f"a{i}" for i in range(n_alg)]
    datasets = datasets or [f"d{i}" for i in range(n_ds)]
    return AggregatedMatrix(algorithms, datasets, values, ~np.isnan(values))


def synthetic_matrix(rng, n_alg, n_ds, alpha_sd=0.03, noise_sd=0.02, alphas=None):
    alphas = alphas if alphas is not None else rng.normal(0, alpha_sd, n_alg)
    deltas = rng.normal(0, 0.08, n_ds)
    values = 0.25 + alphas[None, :] + deltas[:, None] + rng.normal(0, noise_sd, (n_ds, n_alg))
    return make_matrix(values), alphas


def assert_same_chains(chains, others):
    """Every field of every chain bit-identical (df None in both for normal)."""
    assert len(chains) == len(others)
    for c1, c2 in zip(chains, others):
        for name in ("beta", "alpha", "delta", "sigma0", "sigma_a", "sigma_d", "df"):
            a, b = getattr(c1, name), getattr(c2, name)
            if a is None or b is None:
                assert a is None and b is None, name
            else:
                np.testing.assert_array_equal(a, b, err_msg=name)


class TestGammaModeSd:
    def test_golden_ratio_case(self):
        shape, rate = gamma_shape_rate_from_mode_sd(1.0, 1.0)
        assert rate == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
        assert shape == pytest.approx(1 + rate, abs=1e-12)

    def test_roundtrip_grid(self):
        for mode in np.logspace(-4, 3, 10):
            for sd in np.logspace(-4, 3, 10):
                shape, rate = gamma_shape_rate_from_mode_sd(mode, sd)
                assert (shape - 1) / rate == pytest.approx(mode, rel=1e-9)
                assert math.sqrt(shape) / rate == pytest.approx(sd, rel=1e-9)

    def test_small_sd_concentrates_at_mode(self):
        shape, rate = gamma_shape_rate_from_mode_sd(3.0, 1e-6)
        assert shape / rate == pytest.approx(3.0, rel=1e-5)  # mean -> mode

    def test_nonpositive_rejected(self):
        with pytest.raises(InputError):
            gamma_shape_rate_from_mode_sd(0.0, 1.0)
        with pytest.raises(InputError):
            gamma_shape_rate_from_mode_sd(1.0, -1.0)


class TestBuildModel:
    def test_two_point_statistics(self):
        m = make_matrix([[0.1, 0.3], [np.nan, np.nan]])
        spec = build_model(m)
        assert spec.y_mean == pytest.approx(0.2)
        assert spec.y_sd == pytest.approx(0.1414, abs=5e-4)
        assert spec.sigma0_low == pytest.approx(spec.y_sd / 100)
        assert spec.sigma0_high == pytest.approx(spec.y_sd * 10)
        assert spec.beta_sd == pytest.approx(spec.y_sd * 5)

    def test_zero_variance_rejected(self):
        with pytest.raises(InputError, match="zero variance"):
            build_model(make_matrix([[0.2, 0.2], [0.2, 0.2]]))

    def test_robust_variant_has_df_prior(self):
        m = make_matrix([[0.1, 0.3], [0.2, 0.4]])
        spec = build_model(m, "robust")
        assert spec.df_rate == pytest.approx(1 / 30)
        assert build_model(m, "normal").df_rate is None

    def test_gamma_prior_uses_mode_half_sd_double(self):
        m = make_matrix([[0.1, 0.3], [0.2, 0.4]])
        spec = build_model(m)
        shape, rate = gamma_shape_rate_from_mode_sd(spec.y_sd / 2, spec.y_sd * 2)
        assert spec.sigma_effect_shape == pytest.approx(shape)
        assert spec.sigma_effect_rate == pytest.approx(rate)

    def test_single_algorithm_rejected(self):
        with pytest.raises(InputError, match="at least 2"):
            build_model(make_matrix([[0.1], [0.2]]))

    def test_spec_derives_its_priors_from_mean_and_sd(self):
        spec = banova.ModelSpec("robust", 0.5, 0.1)
        assert (spec.sigma0_low, spec.sigma0_high) == (0.001, 1.0)
        assert (spec.beta_mean, spec.beta_sd) == (0.5, 0.5)
        assert (spec.sigma_effect_shape, spec.sigma_effect_rate) == gamma_shape_rate_from_mode_sd(0.05, 0.2)
        assert spec.df_rate == 1 / 30
        assert banova.ModelSpec("normal", 0.5, 0.1).df_rate is None
        assert dataclasses.replace(spec, variant="normal") == banova.ModelSpec("normal", 0.5, 0.1)

    def test_unknown_variant_rejected(self):
        with pytest.raises(InputError, match="^unknown model variant: 'other'$"):
            banova.ModelSpec("other", 0.5, 0.1)


class TestRunChains:
    def test_config_validation(self):
        m = make_matrix([[0.1, 0.3], [0.2, 0.4]])
        spec = build_model(m)
        with pytest.raises(InputError, match="2 chains"):
            run_chains(spec, m, McmcConfig(chains=1), seed=0)
        with pytest.raises(InputError, match="kept"):
            run_chains(spec, m, McmcConfig(kept=0), seed=0)

    @pytest.mark.parametrize("n_jobs", [0, -1])
    def test_n_jobs_below_one_rejected_before_sampling(self, n_jobs, monkeypatch):
        def no_chain(*args):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(banova, "_run_chain", no_chain)
        m = make_matrix([[0.1, 0.3], [0.2, 0.4]])
        cfg = McmcConfig(chains=2, burn_in=5, adaptation=5, kept=10, n_jobs=n_jobs)
        with pytest.raises(InputError, match=f"^n_jobs must be >= 1, got {n_jobs}$"):
            run_chains(build_model(m), m, cfg, seed=0)

    def test_one_kept_draw_rejected_before_sampling(self, monkeypatch):
        # psrf needs two draws per chain; no chain may run first
        def no_chain(*args):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(banova, "_run_chain", no_chain)
        m = make_matrix([[0.1, 0.3], [0.2, 0.4]])
        cfg = McmcConfig(chains=2, burn_in=5, adaptation=5, kept=1)
        with pytest.raises(InputError, match="^diagnostics require at least 2 kept draws per chain$"):
            run_chains(build_model(m), m, cfg, seed=0)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("pin", ["fixed_sigma0", "fixed_sigma_a", "fixed_sigma_d", "fixed_df"])
    def test_pins_must_be_positive(self, pin, value):
        m = make_matrix([[0.1, 0.3], [0.2, 0.4]])
        cfg = McmcConfig(chains=2, burn_in=5, adaptation=5, kept=10, **{pin: value})
        with pytest.raises(InputError, match=f"^{pin} must be > 0"):
            run_chains(build_model(m, "robust"), m, cfg, seed=0)

    def test_matrix_without_present_cells_rejected(self):
        m = make_matrix(np.full((3, 2), np.nan))
        with pytest.raises(InputError, match="^no present cells$"):
            run_chains(banova.ModelSpec("normal", 0.5, 0.1), m, McmcConfig(chains=2, kept=10), seed=0)

    def test_paper_config_values(self):
        cfg = McmcConfig.paper()
        assert cfg.chains == 4
        assert cfg.burn_in == 5000
        assert cfg.adaptation == 5000
        assert cfg.chains * cfg.kept == 100_000

    def test_reproducible_per_seed(self):
        rng = np.random.default_rng(0)
        m, _ = synthetic_matrix(rng, 3, 8)
        spec = build_model(m)
        cfg = McmcConfig(chains=2, burn_in=50, adaptation=50, kept=100)
        d1 = run_chains(spec, m, cfg, seed=5)
        d2 = run_chains(spec, m, cfg, seed=5)
        np.testing.assert_array_equal(d1.chains[0].alpha, d2.chains[0].alpha)
        d3 = run_chains(spec, m, cfg, seed=6)
        assert not np.array_equal(d1.chains[0].alpha, d3.chains[0].alpha)

    def test_missing_cells_tolerated(self):
        rng = np.random.default_rng(1)
        m, _ = synthetic_matrix(rng, 3, 10)
        m.values[2, 1] = np.nan
        m.mask[2, 1] = False
        spec = build_model(m)
        draws = run_chains(spec, m, McmcConfig(chains=2, burn_in=50, adaptation=50, kept=100), seed=1)
        assert np.isfinite(draws.block).all()

    def test_posterior_concentrates_on_planted_difference(self):
        rng = np.random.default_rng(2)
        alphas = np.array([0.0, 0.05, -0.02])
        values = 0.3 + alphas[None, :] + rng.normal(0, 0.05, (115, 1)) + rng.normal(
            0, 0.01 / math.sqrt(2), (115, 3)
        )
        m = make_matrix(values)
        spec = build_model(m)
        draws = run_chains(spec, m, McmcConfig(chains=2, kept=2000), seed=3)
        diff = pairwise_difference_draws(draws, "a1", "a0")
        assert abs(diff.mean() - 0.05) < 2 * diff.std()

    @pytest.mark.parametrize("n_jobs", [1, 2, 3, 8])
    @pytest.mark.parametrize("variant", ["normal", "robust"])
    def test_parallel_chains_match_sequential(self, variant, n_jobs):
        rng = np.random.default_rng(3)
        m, _ = synthetic_matrix(rng, 3, 8)
        spec = build_model(m, variant)
        cfg = McmcConfig(chains=4, burn_in=20, adaptation=20, kept=50, n_jobs=1)
        serial = run_chains(spec, m, cfg, seed=9)
        other = run_chains(spec, m, dataclasses.replace(cfg, n_jobs=n_jobs), seed=9)
        assert_same_chains(serial.chains, other.chains)
        assert serial.meta["slice"] == other.meta["slice"]

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_effect_draws_are_column_major(self, n_jobs, tmp_path):
        # the ROPE matrix and the diagnostics read one effect across draws,
        # whether the draws were just sampled or loaded from a file
        rng = np.random.default_rng(4)
        m, _ = synthetic_matrix(rng, 3, 8)
        cfg = McmcConfig(chains=2, burn_in=5, adaptation=5, kept=20, n_jobs=n_jobs)
        draws = run_chains(build_model(m), m, cfg, seed=1)
        save_draws(draws, tmp_path / "draws.bin")
        for chain in draws.chains + load_draws(tmp_path / "draws.bin").chains:
            assert chain.alpha.flags.f_contiguous and chain.delta.flags.f_contiguous

    @pytest.mark.parametrize("variant", ["normal", "robust"])
    def test_draws_do_not_depend_on_chain_count(self, variant):
        rng = np.random.default_rng(12)
        m, _ = synthetic_matrix(rng, 3, 8)
        spec = build_model(m, variant)
        two = run_chains(spec, m, McmcConfig(chains=2, burn_in=20, adaptation=20, kept=50), seed=4)
        three = run_chains(spec, m, McmcConfig(chains=3, burn_in=20, adaptation=20, kept=50), seed=4)
        assert_same_chains(two.chains, three.chains[:2])
        assert two.meta["slice"] == three.meta["slice"][:2]

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("pinned", ["sigma_a", "sigma_d"])
    def test_non_finite_draws_name_the_parameter(self, pinned, n_jobs):
        # an infinite pinned scale is the one non-finite kept column; a
        # worker's error reaches the caller as it was raised
        rng = np.random.default_rng(13)
        m, _ = synthetic_matrix(rng, 3, 8)
        cfg = McmcConfig(
            chains=2, burn_in=10, adaptation=10, kept=20, n_jobs=n_jobs, **{f"fixed_{pinned}": math.inf}
        )
        with pytest.raises(ComputationError, match=f"^non-finite draws of {pinned} encountered$"):
            run_chains(build_model(m), m, cfg, seed=0)

    def test_both_effect_scales_pinned_infinite_rejected(self, monkeypatch):
        monkeypatch.setattr(banova, "_run_chain", lambda *args: pytest.fail("a chain ran"))
        m, _ = synthetic_matrix(np.random.default_rng(13), 3, 8)
        cfg = McmcConfig(chains=2, burn_in=10, adaptation=10, kept=20, fixed_sigma_a=math.inf, fixed_sigma_d=math.inf)
        with pytest.raises(InputError, match="^fixed_sigma_a and fixed_sigma_d cannot both be inf"):
            run_chains(build_model(m), m, cfg, seed=0)

    @pytest.mark.parametrize("path", ["balanced", "general", "robust"])
    def test_extreme_finite_effect_scale_pins_rejected(self, path, monkeypatch):
        # a finite pin that would overflow a term of the sweep, or make one zero, never reaches a chain
        m, _ = synthetic_matrix(np.random.default_rng(13), 3, 8)
        if path != "balanced":
            m.values[1, 2] = np.nan
            m.mask[1, 2] = False
        spec = build_model(m, "robust" if path == "robust" else "normal")
        assert banova._balanced(spec, m.mask) == (path == "balanced")
        cfg = McmcConfig(chains=2, burn_in=10, adaptation=10, kept=20)
        for value in (0.03, 1e-40, 1e70):  # inside the range: the chains run
            for name in ("fixed_sigma_a", "fixed_sigma_d"):
                draws = run_chains(spec, m, dataclasses.replace(cfg, **{name: value}), seed=0)
                assert np.isfinite(draws.block).all()
        monkeypatch.setattr(banova, "_run_chain", lambda *args: pytest.fail("a chain ran"))
        for name, value in [("fixed_sigma_a", 1e200), ("fixed_sigma_d", 1e200), ("fixed_sigma_a", 1e-200),
                            ("fixed_sigma_a", 1e-150), ("fixed_sigma_d", 1e-150), ("fixed_sigma_a", 1e150)]:
            match = f"^{name}={re.escape(repr(value))} is outside the range where .* pin inf for a flat prior$"
            with pytest.raises(InputError, match=match):
                run_chains(spec, m, dataclasses.replace(cfg, **{name: value}), seed=0)

    @needs_fork
    def test_dead_worker_is_a_computation_error(self, monkeypatch):
        # the forked workers inherit the patched module attribute
        monkeypatch.setattr(banova, "_run_chain", lambda *args: os._exit(3))
        rng = np.random.default_rng(13)
        m, _ = synthetic_matrix(rng, 3, 8)
        cfg = McmcConfig(chains=2, burn_in=10, adaptation=10, kept=20, n_jobs=2)
        with pytest.raises(ComputationError, match="worker process died"):
            run_chains(build_model(m), m, cfg, seed=0)

    def test_pinned_sigma0_outside_the_prior_range_rejected(self):
        m = make_matrix([[0.1, 0.3], [0.2, 0.4], [0.5, 0.1]])
        spec = build_model(m)
        cfg = McmcConfig(chains=2, burn_in=5, adaptation=5, kept=10)
        for value in (spec.sigma0_low / 2, spec.sigma0_high * 2):
            with pytest.raises(InputError, match=r"^fixed_sigma0=.* outside the sigma0 prior range \["):
                run_chains(spec, m, dataclasses.replace(cfg, fixed_sigma0=value), seed=0)
        for value in (spec.sigma0_low, spec.sigma0_high):  # the ends are inside
            draws = run_chains(spec, m, dataclasses.replace(cfg, fixed_sigma0=value), seed=0)
            assert (draws.chains[0].sigma0 == value).all()

    def test_df_prior_rate_comes_from_the_spec(self):
        rng = np.random.default_rng(15)
        m, _ = synthetic_matrix(rng, 3, 8)
        spec = build_model(m, "robust")
        cfg = McmcConfig(chains=2, burn_in=20, adaptation=20, kept=50)
        base = run_chains(spec, m, cfg, seed=2)
        faster = copy.copy(spec)  # df_rate derives from the variant, so set it on a copy
        faster.df_rate = 1.0
        other = run_chains(faster, m, cfg, seed=2)
        assert not np.array_equal(base.chains[0].df, other.chains[0].df)

    def test_exactly_additive_cells_put_sigma0_at_its_lower_bound(self):
        # the residuals vanish, so the sigma0 draw is cut so far in the Gamma
        # tail that the truncated interval's probability underflows
        rng = np.random.default_rng(14)
        values = 0.3 + rng.normal(0, 0.05, 16)[None, :] + rng.normal(0, 0.08, 80)[:, None]
        m = make_matrix(values)
        spec = build_model(m)
        draws = run_chains(spec, m, McmcConfig(chains=2, burn_in=50, adaptation=50, kept=100), seed=1)
        sigma0 = np.concatenate([c.sigma0 for c in draws.chains])
        assert (sigma0 >= spec.sigma0_low).all() and (sigma0 < 1.2 * spec.sigma0_low).all()

    def test_sigma0_posterior_mean_matches_quadrature(self):
        """With sigma_a and sigma_d pinned, beta, alpha and delta integrate out
        exactly: the posterior of sigma0 is its uniform prior times a Gaussian
        marginal likelihood, whose mean is computed here on a grid."""
        rng = np.random.default_rng(21)
        m, _ = synthetic_matrix(rng, 4, 6)
        m.values[1, 2] = np.nan
        m.mask[1, 2] = False
        spec = build_model(m)
        sigma_a, sigma_d = 0.03, 0.08
        cfg = McmcConfig(
            chains=4, burn_in=300, adaptation=300, kept=4000,
            fixed_sigma_a=sigma_a, fixed_sigma_d=sigma_d,
        )
        sigma0 = np.stack([c.sigma0 for c in run_chains(spec, m, cfg, seed=21).chains])
        mcse = sigma0.std() / math.sqrt(effective_sample_size(sigma0))

        di, ai = np.nonzero(m.mask)
        y = m.values[di, ai]
        x = np.zeros((len(y), 1 + m.n_algorithms + m.n_datasets))
        x[:, 0] = 1.0
        x[np.arange(len(y)), 1 + ai] = 1.0
        x[np.arange(len(y)), 1 + m.n_algorithms + di] = 1.0
        prior_var = np.concatenate(
            [[spec.beta_sd**2], np.full(m.n_algorithms, sigma_a**2), np.full(m.n_datasets, sigma_d**2)]
        )
        # y ~ N(beta_mean, sigma0^2 I + X diag(prior_var) X'), diagonalised once
        eig, vec = np.linalg.eigh((x * prior_var) @ x.T)
        proj2 = (vec.T @ (y - spec.beta_mean)) ** 2
        grid = np.geomspace(spec.sigma0_low, spec.sigma0_high, 20_001)
        var = grid[:, None] ** 2 + eig[None, :]
        loglik = -0.5 * (np.log(var) + proj2 / var).sum(axis=1)
        weight = np.exp(loglik - loglik.max())
        exact = np.trapezoid(grid * weight, grid) / np.trapezoid(weight, grid)
        assert abs(sigma0.mean() - exact) < 3 * mcse, (sigma0.mean(), exact, mcse)


def _agreement_z(x, y):
    """z of the gap between the means of two independent (chains, draws) samples."""
    se2 = sum(v.var() / effective_sample_size(v) for v in (x, y))
    return abs(x.mean() - y.mean()) / math.sqrt(se2)


class TestBalancedSweep:
    """The normal variant on a complete table takes the balanced sweep."""

    @pytest.mark.parametrize(
        "variant, hole, balanced",
        [("normal", False, True), ("normal", True, False), ("robust", False, False)],
        ids=["complete normal", "one missing cell", "robust"],
    )
    def test_dispatch(self, variant, hole, balanced, monkeypatch):
        m, _ = synthetic_matrix(np.random.default_rng(22), 3, 8)
        if hole:
            m.values[2, 1] = np.nan
            m.mask[2, 1] = False
        spec = build_model(m, variant)
        assert banova._balanced(spec, m.mask) == balanced
        cfg = McmcConfig(chains=2, burn_in=10, adaptation=10, kept=30)
        own = run_chains(spec, m, cfg, seed=3).block
        monkeypatch.setattr(banova, "_balanced", lambda spec, present: False)
        general = run_chains(spec, m, cfg, seed=3).block
        assert np.array_equal(own, general) != balanced

    def test_balanced_and_general_sweeps_agree(self, monkeypatch):
        # every scalar's mean and second central moment, and every alpha
        # difference's mean, from 4 x 10,000 draws of each sweep
        m, _ = synthetic_matrix(np.random.default_rng(23), 4, 12)
        spec = build_model(m)
        cfg = McmcConfig(chains=4, burn_in=500, adaptation=0, kept=10_000, n_jobs=2)
        balanced = run_chains(spec, m, cfg, seed=5)
        monkeypatch.setattr(banova, "_balanced", lambda spec, present: False)
        general = run_chains(spec, m, cfg, seed=6)
        scores = {}
        for (name, x), (_, y) in zip(balanced.scalar_chains(), general.scalar_chains()):
            scores[name] = _agreement_z(x, y)
            scores[f"{name} second central moment"] = _agreement_z((x - x.mean()) ** 2, (y - y.mean()) ** 2)
        for i, j in zip(*np.triu_indices(m.n_algorithms, 1)):
            diff = [d.alpha[:, i] - d.alpha[:, j] for d in (balanced, general)]
            scores[f"alpha[{m.algorithms[i]}] - alpha[{m.algorithms[j]}]"] = _agreement_z(*diff)
        assert len(scores) == 2 * (1 + 4 + 12 + 3) + 6
        assert max(scores.values()) <= 4.5, scores

    def test_memory_does_not_grow_with_kept_draws(self):
        # a complete 5 x 60 table: a chunk holds the normals of 963 kept sweeps,
        # fewer than either run keeps; the draws block is a mapping, which
        # tracemalloc does not count.  Labels sort as given, so no remap copy
        rng = np.random.default_rng(24)
        values = 0.25 + rng.normal(0, 0.03, 5) + rng.normal(0, 0.08, (60, 1)) + rng.normal(0, 0.02, (60, 5))
        m = AggregatedMatrix([f"a{i}" for i in range(5)], [f"d{i:02d}" for i in range(60)], values,
                             np.ones(values.shape, dtype=bool))
        spec = build_model(m)
        # pinned scales leave the sweep, its chunk and the kept writes as they
        # are and skip the scale draws, whose float allocations tracemalloc
        # makes slow.  CPython 3.11 finds each traced allocation's line by a
        # scan of its function's line table until the function has run under a
        # trace function once; one short traced run makes the measured runs
        # ~8x faster
        pins = {"fixed_sigma0": 0.02, "fixed_sigma_a": 0.03, "fixed_sigma_d": 0.08}
        sys.settrace(lambda *event: None)
        try:
            run_chains(spec, m, McmcConfig(chains=2, burn_in=0, adaptation=0, kept=2), seed=1)
        finally:
            sys.settrace(None)
        peaks = {}
        for kept in (2_500, 25_000):
            tracemalloc.start()
            try:
                run_chains(spec, m, McmcConfig(chains=2, burn_in=0, adaptation=0, kept=kept, **pins), seed=1)
                peaks[kept] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[25_000] <= peaks[2_500] + 2**18, peaks


def reference_chain(spec, y, present, cfg, seed, kept, after_sweep=None):
    """Both sweeps as plain, unfused numpy: the statement ``banova._run_chain``
    must agree with, to rounding.  Same conditionals, same order, same random
    stream.  The general sweep takes every weighted sum of W = lam / sigma0^2
    as written; the balanced sweep (normal, complete) forms each block of
    centred effects as a vector and takes its sums of squares from it.  It
    takes no ``after_sweep`` hook."""
    assert after_sweep is None, "reference_chain takes no after_sweep hook"
    rng = np.random.default_rng(seed)
    n_ds, n_alg = y.shape
    mask = present.astype(float)
    n = int(present.sum())
    robust = spec.variant == "robust"
    balanced = not robust and bool(present.all())
    y_bar = y.mean()
    col, row = y.mean(axis=0) - y_bar, y.mean(axis=1) - y_bar
    within = float(((y - y_bar - col - row[:, None]) ** 2).sum())

    def centred(means, z, prec_data, prec_prior):
        """Centred effects k means + (z - mean(z))/sqrt(prec), and |means - effects|^2."""
        prec = prec_data + prec_prior
        effects = prec_data / prec * means + (z - z.mean()) / math.sqrt(prec)
        return effects, float(((means - effects) ** 2).sum())

    beta = spec.y_mean
    alpha = np.zeros(n_alg)
    delta = np.zeros(n_ds)
    sigma0 = cfg.fixed_sigma0 if cfg.fixed_sigma0 is not None else spec.y_sd
    sigma0 = min(max(sigma0, spec.sigma0_low), spec.sigma0_high)
    sigma_a = cfg.fixed_sigma_a if cfg.fixed_sigma_a is not None else spec.y_sd / 2.0
    sigma_d = cfg.fixed_sigma_d if cfg.fixed_sigma_d is not None else spec.y_sd / 2.0
    df = cfg.fixed_df if cfg.fixed_df is not None else 30.0
    lam = mask
    lam_floor = mask * 1e-300
    missing = 1.0 - mask

    beta_prec0 = 1.0 / spec.beta_sd**2
    eff_shape = spec.sigma_effect_shape
    eff_rate = spec.sigma_effect_rate
    tau_lo, tau_hi = spec.sigma0_high**-2, spec.sigma0_low**-2

    proposals = {}
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

        if balanced:
            alpha, dev_a = centred(col, z[1 : 1 + n_alg], n_ds * inv_s0sq, 1.0 / sigma_a**2)
            delta, dev_d = centred(row, z[1 + n_alg : -2], n_alg * inv_s0sq, 1.0 / sigma_d**2)
            # (beta, mean(alpha), mean(delta)): their sum s given y_bar, then
            # mean(delta) and mean(alpha) given s, all in precisions
            p_a, p_d, p_y = n_alg / sigma_a**2, n_ds / sigma_d**2, n * inv_s0sq
            e2 = p_a * p_d + beta_prec0 * (p_a + p_d)
            prec = beta_prec0 * p_a * p_d / e2 + p_y
            s = spec.beta_mean + (p_y * (y_bar - spec.beta_mean) + z[0] * math.sqrt(prec)) / prec
            d_bar = (p_a * beta_prec0 * (s - spec.beta_mean) + z[-2] * math.sqrt(e2 * (p_a + beta_prec0))) / e2
            a_bar = (beta_prec0 * (s - spec.beta_mean - d_bar) + z[-1] * math.sqrt(p_a + beta_prec0)) / (
                p_a + beta_prec0)
            beta = float(s - a_bar - d_bar)
            alpha = alpha + a_bar
            delta = delta + d_bar
            ss = within + n_ds * dev_a + n_alg * dev_d + n * (y_bar - s) ** 2
        else:
            prec = sum_l * inv_s0sq + beta_prec0
            swr = sum_ly - np.dot(col_l, alpha) - np.dot(row_l, delta)
            mean = (swr * inv_s0sq + spec.beta_mean * beta_prec0) / prec
            beta = float(mean + z[0] / math.sqrt(prec))

            prec_a = col_l * inv_s0sq + 1.0 / (sigma_a * sigma_a)
            swr_a = (col_ly - beta * col_l - np.dot(delta, lam)) * inv_s0sq
            alpha = swr_a / prec_a + z[1 : 1 + n_alg] / np.sqrt(prec_a)

            prec_d = row_l * inv_s0sq + 1.0 / (sigma_d * sigma_d)
            swr_d = (row_ly - beta * row_l - np.dot(lam, alpha)) * inv_s0sq
            delta = swr_d / prec_d + z[1 + n_alg : -2] / np.sqrt(prec_d)

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
            ss = float(np.vdot(lam, r2))

        if cfg.fixed_sigma0 is None:
            ss = max(ss, 1e-300)
            sigma0 = 1.0 / math.sqrt(_truncated_gamma(rng, (n - 1) / 2.0, ss / 2.0, tau_lo, tau_hi))

        if cfg.fixed_sigma_a is None:
            sigma_a, m = _effect_scale(rng, eff_shape, eff_rate, n_alg, float(np.dot(alpha, alpha)))
            proposals["sigma_a"] = proposals.get("sigma_a", 0) + m
        if cfg.fixed_sigma_d is None:
            sigma_d, m = _effect_scale(rng, eff_shape, eff_rate, n_ds, float(np.dot(delta, delta)))
            proposals["sigma_d"] = proposals.get("sigma_d", 0) + m

        if robust:
            scale = mask / (0.5 * df + (0.5 / (sigma0 * sigma0)) * r2)
            lam = rng.standard_gamma((df + 1.0) / 2.0, y.shape) * scale
            np.maximum(lam, lam_floor, out=lam)
            col_l, row_l, col_ly, row_ly, sum_l, sum_ly = lam_sums()

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


_SWEEP_CASES = {
    "default": {},
    "fixed_sigma0": {"fixed_sigma0": 0.02},
    "fixed_sigma_a": {"fixed_sigma_a": 0.03},
    "fixed_sigma_d": {"fixed_sigma_d": 0.08},
    "fixed_df": {"fixed_df": 4.0},
    "thinning 2": {"thinning": 2},
}


class TestReferenceSweep:
    @staticmethod
    def assert_agrees(m, spec, cfg, monkeypatch):
        """Every draw of every column of ``run_chains`` within rounding of the reference."""
        fused = run_chains(spec, m, cfg, seed=17)
        monkeypatch.setattr(banova, "_run_chain", reference_chain)
        plain = run_chains(spec, m, cfg, seed=17)
        assert fused.meta["slice"] == plain.meta["slice"]
        for (name, got), (_, want) in zip(fused.scalar_chains(), plain.scalar_chains()):
            assert (np.abs(got - want) <= 1e-10 * (1.0 + np.abs(want))).all(), name

    @pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
    @pytest.mark.parametrize("variant", ["normal", "robust"])
    def test_sweep_agrees_with_the_reference_chain(self, variant, case, monkeypatch):
        # a 4 x 9 table with one missing cell: the general sweep
        rng = np.random.default_rng(21)
        m, _ = synthetic_matrix(rng, 4, 9)
        m.values[3, 2] = np.nan
        m.mask[3, 2] = False
        cfg = McmcConfig(chains=2, burn_in=40, adaptation=40, kept=150, **_SWEEP_CASES[case])
        self.assert_agrees(m, build_model(m, variant), cfg, monkeypatch)

    @pytest.mark.parametrize("case", sorted(set(_SWEEP_CASES) - {"fixed_df"}))
    def test_balanced_sweep_agrees_with_the_reference_chain(self, case, monkeypatch):
        # the complete 4 x 9 table under the normal variant: the balanced sweep,
        # whose 150 kept draws span one chunk of effects written at the end
        m, _ = synthetic_matrix(np.random.default_rng(21), 4, 9)
        spec = build_model(m, "normal")
        assert banova._balanced(spec, m.mask)
        cfg = McmcConfig(chains=2, burn_in=40, adaptation=40, kept=150, **_SWEEP_CASES[case])
        self.assert_agrees(m, spec, cfg, monkeypatch)

    def test_balanced_sweep_agrees_across_chunks(self, monkeypatch):
        # chunks of 7 kept sweeps: 21 full ones and a last of 3 per chain
        monkeypatch.setattr(banova, "_SLICE_DRAWS", 7 * 2 * (1 + 4 + 9 + 2))
        m, _ = synthetic_matrix(np.random.default_rng(21), 4, 9)
        cfg = McmcConfig(chains=2, burn_in=40, adaptation=40, kept=150, thinning=2)
        self.assert_agrees(m, build_model(m, "normal"), cfg, monkeypatch)


class TestTruncatedGamma:
    """The exact sigma0 step: one draw of Gamma(shape, rate) on [lo, hi]."""

    @pytest.mark.parametrize(
        "shape, rate, lo, hi",
        [
            (5.0, 2.0, 0.5, 4.0),  # mode 2 inside the interval
            (50.0, 1.0, 5.0, 30.0),  # untruncated mode 49 above hi
            (3.0, 1.0, 6.0, 40.0),  # mode 2 below lo: upper-tail inverse
            (0.5, 3.0, 0.01, 2.0),  # shape below 1 (two present cells)
        ],
    )
    def test_matches_truncated_cdf(self, shape, rate, lo, hi):
        p_lo, p_hi = special.gammainc(shape, rate * lo), special.gammainc(shape, rate * hi)
        rng = np.random.default_rng(17)
        x = np.array([_truncated_gamma(rng, shape, rate, lo, hi) for _ in range(4000)])
        assert ((lo <= x) & (x <= hi)).all()
        cdf = lambda t: (special.gammainc(shape, rate * t) - p_lo) / (p_hi - p_lo)  # noqa: E731
        assert stats.kstest(x, cdf).pvalue > 0.01

    @pytest.mark.parametrize(
        "shape, lo, hi",
        [(800.0, 10.0, 50.0), (3.0, 1000.0, 2000.0), (0.5, 800.0, 900.0)],
    )
    def test_far_tail_matches_integrated_cdf(self, shape, lo, hi):
        # the interval's probability underflows in both tails: the rejection path
        assert special.gammainc(shape, hi) == 0.0 or special.gammaincc(shape, lo) == 0.0
        grid = np.linspace(lo, hi, 400_001)
        logf = (shape - 1.0) * np.log(grid) - grid
        dens = np.exp(logf - logf.max())
        cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(grid))])
        rng = np.random.default_rng(18)
        x = np.array([_truncated_gamma(rng, shape, 1.0, lo, hi) for _ in range(4000)])
        assert ((lo <= x) & (x <= hi)).all()
        assert stats.kstest(x, lambda t: np.interp(t, grid, cum / cum[-1])).pvalue > 0.01

    @pytest.mark.parametrize(
        "shape, rate, lo, hi",
        [
            (3.0, 1.0, 25.0, 40.0),  # probability about 4e-9: the inverse CDF
            (3.0, 1.0, 1000.0, 2000.0),  # probability underflows: the far tail
        ],
    )
    def test_cold_interpreter_draws_match_in_process(self, shape, rate, lo, hi):
        # the fallback imports scipy.special on first use; a process that has
        # not loaded it yet must draw the same values from the same seed
        code = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import numpy as np\n"
            "from benchstat.banova import _truncated_gamma\n"
            "before = 'scipy.special' in sys.modules\n"
            "rng = np.random.default_rng(19)\n"
            "args = [float(a) for a in sys.argv[2:]]\n"
            "print(before, *(repr(_truncated_gamma(rng, *args)) for _ in range(5)))\n"
            "print('scipy.special' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(banova.__file__))
        run = subprocess.run(
            [sys.executable, "-c", code, src, *map(repr, (shape, rate, lo, hi))],
            capture_output=True, text=True, check=True,
        )
        first, second = run.stdout.splitlines()
        before, *cold = first.split()
        assert (before, second) == ("False", "True")
        rng = np.random.default_rng(19)
        assert [float(x) for x in cold] == [_truncated_gamma(rng, shape, rate, lo, hi) for _ in range(5)]


class TestEffectScale:
    """The exact sigma_a/sigma_d step: s^(shape-1-k) exp(-rate*s - ss/(2 s^2))."""

    SHAPE, RATE = 1.2832, 6.3  # build_model's prior for a data sd of 0.09

    @staticmethod
    def integrated_cdf(shape, rate, k, ss):
        """CDF of s by the trapezoid rule in u = log s, around the mode."""
        roots = np.roots([rate, k - shape, 0.0, -ss])  # the mode solves this cubic
        s0 = float(max(r.real for r in roots if abs(r.imag) < 1e-9 * abs(r)))
        u0, sd = math.log(s0), 1.0 / math.sqrt(rate * s0 + 2.0 * ss / s0**2)
        grid = np.linspace(u0 - 40.0 * sd, u0 + 40.0 * sd, 200_001)
        logf = (
            (shape - k) * (grid - u0) - rate * (np.exp(grid) - s0)
            - 0.5 * ss * (np.exp(-2.0 * grid) - s0**-2)
        )
        dens = np.exp(logf)
        cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(grid))])
        return lambda s: np.interp(np.log(s), grid, cum / cum[-1])

    @pytest.mark.parametrize("ss", [1e-12, 1e-3, 1.0, 1e6])
    @pytest.mark.parametrize("k", [2, 3, 14, 115])
    def test_matches_integrated_cdf(self, k, ss):
        rng = np.random.default_rng([k, round(math.log10(ss)) + 12])
        out = np.array([_effect_scale(rng, self.SHAPE, self.RATE, k, ss) for _ in range(20_000)])
        assert (out[:, 0] > 0.0).all()
        assert stats.kstest(out[:, 0], self.integrated_cdf(self.SHAPE, self.RATE, k, ss)).pvalue > 1e-3
        assert out[:, 1].mean() <= 1.5  # proposals per draw

    def test_prior_shape_above_k_matches_integrated_cdf(self):
        # a prior with shape > k starts Newton from the other bound
        rng = np.random.default_rng(20)
        out = np.array([_effect_scale(rng, 4.0, self.RATE, 2, 1.0) for _ in range(20_000)])
        assert stats.kstest(out[:, 0], self.integrated_cdf(4.0, self.RATE, 2, 1.0)).pvalue > 1e-3

    def test_zero_effects_give_a_positive_draw(self):
        s, proposals = _effect_scale(np.random.default_rng(0), self.SHAPE, self.RATE, 14, 0.0)
        assert 0.0 < s < 1e-100 and proposals >= 1

    def test_proposal_cap_is_a_computation_error(self):
        # a prior far stronger than the effects: the envelope is far too wide
        with pytest.raises(ComputationError, match=r"^effect scale draw \(k=2, .* 1000 proposals$"):
            _effect_scale(np.random.default_rng(0), 1e12, 1e12, 2, 1.0)

    @pytest.mark.parametrize("k, ss", [(10, 2.8e185), (4, 1.0e149)])
    def test_conditional_narrower_than_an_ulp(self, k, ss):
        # effects of order 1e70-1e90 put rate*s0 above 1e30, where the
        # rejection test was rounding noise; the draw is then the mode to
        # float precision, so it solves the mode's cubic
        shape, rate = gamma_shape_rate_from_mode_sd(0.05, 0.2)
        s, proposals = _effect_scale(np.random.default_rng(1), shape, rate, k, ss)
        assert rate * s > 1e30 and proposals == 1
        assert (rate * s + k - shape) * s * s == pytest.approx(ss, rel=1e-14)

    def test_cli_scale_priors_stay_far_from_the_narrow_regime(self):
        # build_model scales the effect prior with the data sd and gives it
        # a shape below k, so the mode's cubic bounds rate*s0 by
        # (rate^2 ss)^(1/3): only the effects in data-sd units matter
        m, _ = synthetic_matrix(np.random.default_rng(21), 14, 115)
        spec = build_model(m)
        rate = spec.sigma_effect_rate
        assert spec.sigma_effect_shape < 2
        cfg = McmcConfig(chains=2, burn_in=200, adaptation=0, kept=500)
        ss = max(
            np.square(effects).sum(axis=1).max()
            for c in run_chains(spec, m, cfg, seed=4).chains
            for effects in (c.alpha, c.delta)
        )
        assert (rate**2 * ss) ** (1 / 3) < 100
        # 115 effects of a billion data sds each would still be far below
        assert (rate**2 * 115 * (1e9 * spec.y_sd) ** 2) ** (1 / 3) < 1e7

    @pytest.mark.parametrize("n_alg, n_ds", [(2, 115), (14, 115)])
    def test_chains_need_few_proposals(self, n_alg, n_ds):
        # desk-like tables; with two algorithms the sigma_a posterior is wide
        rng = np.random.default_rng(19)
        m, _ = synthetic_matrix(rng, n_alg, n_ds)
        cfg = McmcConfig(chains=2, burn_in=100, adaptation=100, kept=1000)
        for chain in run_chains(build_model(m), m, cfg, seed=3).meta["slice"]:
            assert 1.0 <= chain["sigma_a"]["proposals_per_draw"] <= 1.5
            assert 1.0 <= chain["sigma_d"]["proposals_per_draw"] <= 1.5


class TestDegreesOfFreedom:
    """The exact df step: h = df/2 has density h^(n/2) exp(-c h - n R(h))."""

    @staticmethod
    def binet(h):
        return special.gammaln(h) - (h - 0.5) * np.log(h) + h - 0.5 * math.log(2.0 * math.pi)

    @classmethod
    def integrated_cdf(cls, n, c, h0):
        """CDF of df by the trapezoid rule in u = log h, around h0."""
        u0, sd = math.log(h0), 1.0 / math.sqrt(0.5 * n + 1.0)  # about the spread of u
        grid = np.linspace(u0 - 40.0 * sd, u0 + 40.0 * sd, 200_001)
        h = np.exp(grid)
        logf = (0.5 * n + 1.0) * grid - c * h - n * cls.binet(h)
        dens = np.exp(logf - logf.max())
        cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(grid))])
        return lambda df: np.interp(np.log(df / 2.0), grid, cum / cum[-1])

    @pytest.mark.parametrize("df", [0.05, 1.0, 2.4, 30.0, 1e4])
    @pytest.mark.parametrize("n", [2, 18, 1610])
    def test_matches_integrated_cdf(self, n, df):
        h0 = df / 2.0
        c = n * (math.log(h0) - float(special.digamma(h0)))  # puts the mode of h at h0
        rng = np.random.default_rng([n, round(10.0 * math.log10(df)) + 20])
        out = np.array([_degrees_of_freedom(rng, n, c) for _ in range(4000)])
        assert (out[:, 0] > 0.0).all()
        assert stats.kstest(out[:, 0], self.integrated_cdf(n, c, h0)).pvalue > 1e-3
        assert out[:, 1].mean() <= 1.5  # proposals per draw

    def test_binet_matches_scipy(self):
        h = np.geomspace(1e-3, 1e4, 2001)
        slopes = np.array([_binet_slopes(x) for x in h])
        np.testing.assert_allclose(
            slopes[:, 0], special.digamma(h) - np.log(h) + 0.5 / h, rtol=1e-11, atol=1e-14
        )
        np.testing.assert_allclose(
            slopes[:, 1], special.polygamma(1, h) - 1.0 / h - 0.5 / h**2, rtol=1e-11, atol=1e-17
        )
        # R is lgamma less Stirling's formula, so both sides carry lgamma's
        # rounding: a few ulp of lgamma(h), about 3e-11 at h = 1e4
        lgamma = special.gammaln(h)
        error = np.abs(np.array([_binet(x) for x in h]) - self.binet(h))
        assert (error <= 1e-11 + 4.0 * np.spacing(np.abs(lgamma))).all()

    def test_non_finite_input_is_a_computation_error(self):
        with pytest.raises(ComputationError, match=r"^degrees-of-freedom draw \(n=5, c=nan\)"):
            _degrees_of_freedom(np.random.default_rng(0), 5, math.nan)

    def test_chains_need_few_proposals(self):
        # a desk-like table with student-t noise of 2.4 degrees of freedom
        rng = np.random.default_rng(21)
        alphas = rng.normal(0, 0.03, 14)
        values = 0.25 + alphas[None, :] + rng.normal(0, 0.08, (115, 1))
        m = make_matrix(values + 0.02 * rng.standard_t(2.4, (115, 14)))
        cfg = McmcConfig(chains=2, burn_in=100, adaptation=100, kept=1000)
        for chain in run_chains(build_model(m, "robust"), m, cfg, seed=3).meta["slice"]:
            for name in ("sigma_a", "sigma_d", "df"):
                assert 1.0 <= chain[name]["proposals_per_draw"] <= 1.5, name


def hand_built_draws():
    """Two chains of four draws whose alpha rows differ between chains: alpha_b
    is 0 and alpha_c is 0.5 throughout, so b and c sit exactly a half-width
    of 0.5 apart."""
    block = np.zeros((2, 1 + 3 + 2 + 3, 4))
    block[:, 1] = [[0.0, 0.25, 0.5, -0.5], [1.0, 0.125, 3.0, 2.0]]  # alpha_a
    block[:, 3] = 0.5  # alpha_c
    block[:, -3:] = 1.0  # sigma0, sigma_a, sigma_d
    return PosteriorDraws("normal", ("a", "b", "c"), ("d1", "d2"), block)


ALGORITHMS, DATASETS = ("a", "b", "c"), ("d1", "d2")


def column_valued_draws(variant):
    """Two chains of four draws of ALGORITHMS and DATASETS in which column k
    of chain c holds 2**k + c/4 throughout, so that every column and chain is
    told apart by its value."""
    k = np.arange(len(_column_names(variant, ALGORITHMS, DATASETS)))
    block = np.empty((2, len(k), 4))
    block[:] = 2.0 ** k[:, None] + np.arange(2)[:, None, None] / 4
    return PosteriorDraws(variant, ALGORITHMS, DATASETS, block)


class TestPairwiseDifferences:
    def _draws(self):
        rng = np.random.default_rng(4)
        m, _ = synthetic_matrix(rng, 3, 8)
        spec = build_model(m)
        return run_chains(spec, m, McmcConfig(chains=2, burn_in=20, adaptation=20, kept=50), seed=0)

    def test_same_algorithm_rejected(self):
        with pytest.raises(InputError, match="distinct"):
            pairwise_difference_draws(self._draws(), "a0", "a0")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(InputError, match="unknown algorithm"):
            pairwise_difference_draws(self._draws(), "a0", "nope")

    def test_antisymmetric(self):
        draws = self._draws()
        np.testing.assert_array_equal(
            pairwise_difference_draws(draws, "a0", "a1"),
            -pairwise_difference_draws(draws, "a1", "a0"),
        )

    def test_chain_after_chain_on_a_hand_built_block(self):
        draws = hand_built_draws()
        np.testing.assert_array_equal(
            pairwise_difference_draws(draws, "a", "b"), [0.0, 0.25, 0.5, -0.5, 1.0, 0.125, 3.0, 2.0]
        )
        np.testing.assert_array_equal(
            pairwise_difference_draws(draws, "c", "a"), [0.5, 0.25, 0.0, 1.0, -0.5, 0.375, -2.5, -1.5]
        )


class TestRopeMatrix:
    def test_degenerate_zero_draws_give_one(self):
        block = np.zeros((2, 1 + 3 + 2 + 3, 10))
        block[:, -3:] = 1.0  # sigma0, sigma_a, sigma_d
        draws = PosteriorDraws("normal", ("a", "b", "c"), ("d1", "d2"), block)
        m = rope_probability_matrix(draws, 0.0112)
        off_diag = m.values[~np.eye(3, dtype=bool)]
        assert (off_diag == 1.0).all()

    def test_counts_over_both_chains_and_the_boundary_is_outside(self):
        # a - b: 0, 0.25 | 0.125 inside; 0.5 and -0.5 on the boundary, outside.
        # a - c: -0.25, 0 | -0.375 inside.  b - c: -0.5 in every draw, outside.
        m = rope_probability_matrix(hand_built_draws(), 0.5)
        expected = np.array([[np.nan, 3 / 8, 3 / 8], [3 / 8, np.nan, 0.0], [3 / 8, 0.0, np.nan]])
        np.testing.assert_array_equal(m.values, expected)

    def test_nonpositive_half_width_rejected(self):
        block = np.zeros((2, 1 + 2 + 2 + 3, 2))
        block[:, -3:] = 1.0
        draws = PosteriorDraws("normal", ("a", "b"), ("d1", "d2"), block)
        with pytest.raises(InputError):
            rope_probability_matrix(draws, 0.0)

    def test_nan_half_width_rejected(self):
        with pytest.raises(InputError, match="half_width must be positive, got nan"):
            rope_probability_matrix(hand_built_draws(), math.nan)

    def test_relabeling_permutes_matrix_exactly(self):
        rng = np.random.default_rng(5)
        m, _ = synthetic_matrix(rng, 4, 12)
        spec = build_model(m)
        cfg = McmcConfig(chains=2, burn_in=50, adaptation=50, kept=200)
        base = rope_probability_matrix(run_chains(spec, m, cfg, seed=7), 0.0112)
        perm = [2, 0, 3, 1]
        m2 = AggregatedMatrix(
            [m.algorithms[i] for i in perm],
            m.datasets,
            m.values[:, perm],
            m.mask[:, perm],
        )
        permuted = rope_probability_matrix(run_chains(build_model(m2), m2, cfg, seed=7), 0.0112)
        np.testing.assert_array_equal(
            base.values[np.ix_(perm, perm)], permuted.values
        )


    def test_relabeling_permutes_every_effect_row_exactly(self):
        m, _ = synthetic_matrix(np.random.default_rng(5), 4, 6)
        spec = build_model(m)
        cfg = McmcConfig(chains=2, burn_in=20, adaptation=20, kept=30)
        pa, pd = [2, 0, 3, 1], [5, 3, 0, 4, 1, 2]
        m2 = AggregatedMatrix([m.algorithms[i] for i in pa], [m.datasets[i] for i in pd],
                              m.values[np.ix_(pd, pa)], m.mask[np.ix_(pd, pa)])
        base = run_chains(spec, m, cfg, seed=7).block
        rows = [0, *(1 + np.array(pa)), *(5 + np.array(pd)), 11, 12, 13]
        np.testing.assert_array_equal(base[:, rows], run_chains(spec, m2, cfg, seed=7).block)


class TestDrawsBlock:
    @pytest.mark.parametrize(
        "variant, shape",
        [
            ("normal", (2, 10, 5)),  # one column too many: the columns of 3 algorithms
            ("robust", (2, 9, 5)),  # no df column
            ("normal", (9, 5)),  # not (chain, column, draw)
            ("normal", (2, 9, 0)),  # no draws
            ("normal", (0, 9, 5)),  # no chains
        ],
        ids=["column count", "missing df", "not 3-D", "zero draws", "zero chains"],
    )
    def test_block_that_does_not_fit_the_labels_rejected(self, variant, shape):
        # 2 algorithms and 3 datasets: beta, 5 effects, 3 scales and df if robust
        with pytest.raises(ValueError, match="does not fit the labels"):
            PosteriorDraws(variant, ("a", "b"), ("d1", "d2", "d3"), np.zeros(shape))

    @pytest.mark.parametrize("variant", ["normal", "robust"])
    def test_every_reader_takes_the_column_its_name_gives(self, variant):
        draws = column_valued_draws(variant)
        names = _column_names(variant, ALGORITHMS, DATASETS)

        def column(name):
            """The (chains, draws) values of the column that ``names`` gives ``name``."""
            return 2.0 ** names.index(name) + np.arange(2)[:, None] / 4 + np.zeros(4)

        assert draws.names == names
        assert [name for name, _ in draws.scalar_chains()] == names
        for name, values in draws.scalar_chains():
            np.testing.assert_array_equal(values, column(name), err_msg=name)
        for views, kind, labels in ((draws.alpha, "alpha", ALGORITHMS), (draws.delta, "delta", DATASETS)):
            assert views.shape == (2, len(labels), 4)
            for j, label in enumerate(labels):
                np.testing.assert_array_equal(views[:, j], column(f"{kind}[{label}]"))
        for c, chain in enumerate(draws.chains):
            for name in ("beta", "sigma0", "sigma_a", "sigma_d"):
                np.testing.assert_array_equal(getattr(chain, name), column(name)[c], err_msg=name)
            if variant == "robust":
                np.testing.assert_array_equal(chain.df, column("df")[c])
            else:
                assert chain.df is None
            np.testing.assert_array_equal(chain.alpha, np.stack([column(f"alpha[{a}]")[c] for a in ALGORITHMS], 1))
            np.testing.assert_array_equal(chain.delta, np.stack([column(f"delta[{d}]")[c] for d in DATASETS], 1))
        # alpha a, b and c hold 2, 4 and 8: gaps of 2 and 4 lie inside 5, 6 does not
        np.testing.assert_array_equal(
            rope_probability_matrix(draws, 5.0).values, [[np.nan, 1, 0], [1, np.nan, 1], [0, 1, np.nan]]
        )
        np.testing.assert_array_equal(pairwise_difference_draws(draws, "c", "a"), np.full(8, 6.0))

    def test_ppc_reads_the_named_columns(self):
        names = _column_names("normal", ALGORITHMS, DATASETS)
        values = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        m = AggregatedMatrix(ALGORITHMS, DATASETS, values, np.ones_like(values, dtype=bool))
        expected = []
        for c in range(2):  # every draw of chain c gives one discrepancy of the real data
            value = {name: 2.0 ** k + c / 4 for k, name in enumerate(names)}
            nu = np.array([[value["beta"] + value[f"alpha[{a}]"] + value[f"delta[{d}]"] for a in ALGORITHMS]
                           for d in DATASETS])
            expected += 4 * [((values - nu) ** 2).sum() / value["sigma0"] ** 2]
        result = posterior_predictive_check(column_valued_draws("normal"), m, n_draws=8, seed=0)
        assert sorted(t for t, _ in result.discrepancies) == pytest.approx(sorted(expected), rel=1e-12)

    @pytest.mark.parametrize("source", ["sampled", "v2 file", "v1 file"])
    def test_every_read_is_a_view_of_the_block(self, tmp_path, source):
        if source == "v1 file":
            draws = load_draws(Path(__file__).parent / "golden" / "legacy-v1.draws")
        else:
            m, _ = synthetic_matrix(np.random.default_rng(6), 3, 6)
            cfg = McmcConfig(chains=2, burn_in=5, adaptation=5, kept=20)
            draws = run_chains(build_model(m, "robust"), m, cfg, seed=2)
        if source == "v2 file":
            save_draws(draws, tmp_path / "draws.bin")
            draws = load_draws(tmp_path / "draws.bin")
        scalars = [values for _, values in draws.scalar_chains()]
        assert len(scalars) == draws.block.shape[1]
        fields = [v for c in draws.chains for v in vars(c).values() if v is not None]
        for values in scalars + fields + [draws.alpha, draws.delta]:
            assert np.shares_memory(values, draws.block)


class TestPersistence:
    def _sample(self, variant):
        rng = np.random.default_rng(6)
        m, _ = synthetic_matrix(rng, 3, 6)
        spec = build_model(m, variant)
        return run_chains(spec, m, McmcConfig(chains=2, burn_in=30, adaptation=30, kept=40), seed=2)

    @pytest.mark.parametrize("variant", ["normal", "robust"])
    def test_roundtrip_is_exact(self, tmp_path, variant):
        draws = self._sample(variant)
        path = tmp_path / "draws.csv"
        save_draws(draws, path)
        assert list(tmp_path.iterdir()) == [path]  # exactly the given name, format v2
        assert path.read_bytes().startswith(b"#benchstat-draws v2 ")
        loaded = load_draws(path)
        assert loaded.variant == draws.variant
        assert loaded.algorithms == draws.algorithms
        assert loaded.datasets == draws.datasets
        for c1, c2 in zip(draws.chains, loaded.chains):
            np.testing.assert_array_equal(c1.beta, c2.beta)
            np.testing.assert_array_equal(c1.alpha, c2.alpha)
            np.testing.assert_array_equal(c1.delta, c2.delta)
            np.testing.assert_array_equal(c1.sigma0, c2.sigma0)
            np.testing.assert_array_equal(c1.sigma_a, c2.sigma_a)
            np.testing.assert_array_equal(c1.sigma_d, c2.sigma_d)
            if variant == "robust":
                np.testing.assert_array_equal(c1.df, c2.df)
            else:
                assert c2.df is None
            for values in (c2.beta, c2.alpha, c2.delta, c2.sigma0, c2.sigma_a, c2.sigma_d):
                assert values.flags.writeable
        assert loaded.meta == draws.meta

    def test_rope_matrix_identical_after_roundtrip(self, tmp_path):
        draws = self._sample("normal")
        path = tmp_path / "draws.csv"
        save_draws(draws, path)
        m1 = rope_probability_matrix(draws, 0.01)
        m2 = rope_probability_matrix(load_draws(path), 0.01)
        np.testing.assert_array_equal(m1.values, m2.values)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("not a draws file\n")
        with pytest.raises(InputError, match="not a benchstat draws file"):
            load_draws(path)

    def test_v2_block_layout(self, tmp_path):
        draws = self._sample("robust")
        path = tmp_path / "draws.bin"
        save_draws(draws, path)
        head, _, block = path.read_bytes().partition(b"\n")
        assert json.loads(head.split(b" ", 2)[2])["draws_per_chain"] == 40
        block = np.frombuffer(block, dtype="<f8").reshape(2, 40, 1 + 3 + 6 + 3 + 1)
        c = draws.chains[1]
        np.testing.assert_array_equal(block[1, :, 0], c.beta)
        np.testing.assert_array_equal(block[1, :, 1:4], c.alpha)
        np.testing.assert_array_equal(block[1, :, 4:10], c.delta)
        scales = np.column_stack([c.sigma0, c.sigma_a, c.sigma_d, c.df])
        np.testing.assert_array_equal(block[1, :, 10:], scales)

    def test_v1_text_file_still_loads(self, tmp_path):
        legacy = Path(__file__).parent / "golden" / "legacy-v1.draws"
        old = load_draws(legacy)
        assert (old.n_chains, old.draws_per_chain, old.meta["seed"]) == (2, 200, 11)
        path = tmp_path / "draws.csv"
        save_draws(old, path)
        new = load_draws(path)
        for c1, c2 in zip(old.chains, new.chains):
            np.testing.assert_array_equal(c1.alpha, c2.alpha)
            np.testing.assert_array_equal(c1.sigma_d, c2.sigma_d)

    def test_v1_load_leaves_no_unclosed_file(self):
        # -X dev shows the ResourceWarning of a text wrapper that closes the
        # file when it is collected
        legacy = Path(__file__).parent / "golden" / "legacy-v1.draws"
        code = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from benchstat import load_draws\n"
            "load_draws(sys.argv[2])\n"
            "print('loaded')\n"
        )
        src = os.path.dirname(os.path.dirname(banova.__file__))
        run = subprocess.run(
            [sys.executable, "-X", "dev", "-c", code, src, str(legacy)],
            capture_output=True, text=True, check=True,
        )
        assert run.stdout == "loaded\n"
        assert "ResourceWarning" not in run.stderr

    def test_block_read_in_slices_keeps_every_draw(self, tmp_path):
        # 355 columns are read about 370 draws at a time: 3 slices per chain
        rng = np.random.default_rng(14)
        n, n_alg, n_ds = 1000, 50, 300
        block = rng.standard_normal((3, 1 + n_alg + n_ds + 4, n))
        draws = PosteriorDraws(
            "robust", [f"a{i}" for i in range(n_alg)], [f"d{i}" for i in range(n_ds)], block
        )
        save_draws(draws, tmp_path / "draws.bin")
        assert_same_chains(draws.chains, load_draws(tmp_path / "draws.bin").chains)

    @pytest.mark.parametrize("draws_per_chain", ["1", "slice - 1", "slice", "3 slices + 7"])
    def test_roundtrip_at_slice_edges(self, tmp_path, draws_per_chain):
        # 2 algorithms and 3 datasets: 9 columns, so a slice holds about 14,563 draws
        step = banova._SLICE_DRAWS // 9
        n = {"1": 1, "slice - 1": step - 1, "slice": step, "3 slices + 7": 3 * step + 7}[draws_per_chain]
        block = np.random.default_rng(15).standard_normal((2, 9, n))
        draws = PosteriorDraws("normal", ["a", "b"], ["d1", "d2", "d3"], block)
        path = tmp_path / "draws.bin"
        save_draws(draws, path)
        raw = path.read_bytes().partition(b"\n")[2]
        assert raw == np.ascontiguousarray(block.transpose(0, 2, 1), dtype="<f8").tobytes()
        np.testing.assert_array_equal(load_draws(path).block, block)

    def test_save_holds_one_slice_at_a_time(self, tmp_path):
        # desk draws, 4 x 5,000 of 133 columns (21.3 MB); a whole chain is 5.3 MB
        block = np.random.default_rng(16).standard_normal((4, 1 + 14 + 115 + 3, 5000))
        draws = PosteriorDraws("normal", [f"a{i}" for i in range(14)], [f"d{i}" for i in range(115)], block)
        tracemalloc.start()  # counts only what the save allocates
        try:
            save_draws(draws, tmp_path / "draws.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 2**20
        np.testing.assert_array_equal(load_draws(tmp_path / "draws.bin").block, block)

    @pytest.mark.parametrize("meta", [[1, 2], None, 3], ids=["list", "null", "number"])
    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_meta_that_is_not_an_object_rejected(self, tmp_path, version, meta):
        if version == "v1":
            header, body = (Path(__file__).parent / "golden" / "legacy-v1.draws").read_bytes().split(b"\n", 1)
        else:
            header, body = self._saved_bytes(tmp_path)[1].split(b"\n", 1)
        magic, fields = header.split(b" {", 1)
        fields = json.loads(b"{" + fields) | {"meta": meta}
        path = tmp_path / "bad.draws"
        path.write_bytes(magic + b" " + json.dumps(fields).encode() + b"\n" + body)
        message = f"malformed header (meta {json.dumps(meta)} is not an object)"
        with pytest.raises(InputError, match=re.escape(message)):
            load_draws(path)

    def test_malformed_v1_text_rejected(self, tmp_path):
        lines = (Path(__file__).parent / "golden" / "legacy-v1.draws").read_text().splitlines(True)
        lines[5] = "0,x" + lines[5][2:]
        path = tmp_path / "bad.draws"
        path.write_text("".join(lines))
        with pytest.raises(InputError, match="could not convert string"):
            load_draws(path)

    def _saved_bytes(self, tmp_path):
        path = tmp_path / "draws.csv"
        save_draws(self._sample("normal"), path)
        return path, path.read_bytes()

    @pytest.mark.parametrize("cut", [-8, -3, 3, 8])
    def test_block_size_mismatch_rejected(self, tmp_path, cut):
        path, raw = self._saved_bytes(tmp_path)
        want = 2 * 40 * (1 + 3 + 6 + 3) * 8
        path.write_bytes(raw[:cut] if cut < 0 else raw + b"\0" * cut)
        with pytest.raises(InputError, match=f"has {want + cut} bytes, header wants {want} "):
            load_draws(path)

    def test_header_dimensions_must_match_block(self, tmp_path):
        path, raw = self._saved_bytes(tmp_path)
        path.write_bytes(raw.replace(b'"draws_per_chain": 40', b'"draws_per_chain": 39', 1))
        with pytest.raises(InputError, match=r"header wants \d+ \(2 chains x 39 draws x 13 columns"):
            load_draws(path)

    def test_unknown_version_rejected(self, tmp_path):
        path, raw = self._saved_bytes(tmp_path)
        path.write_bytes(raw.replace(b" v2 ", b" v3 ", 1))
        with pytest.raises(InputError, match=r"version 'v3', expected one of \('v1', 'v2'\)"):
            load_draws(path)

    def test_missing_file_is_input_error(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            load_draws(tmp_path / "absent.csv")

    def test_slice_counters_in_meta(self, tmp_path):
        draws = self._sample("robust")
        counters = draws.meta["slice"]
        assert len(counters) == 2
        for chain in counters:
            assert sorted(chain) == ["df", "sigma_a", "sigma_d"]
            for name in ("sigma_a", "sigma_d", "df"):
                assert list(chain[name]) == ["proposals_per_draw"]
                assert chain[name]["proposals_per_draw"] >= 1.0
        path = tmp_path / "draws.bin"
        save_draws(draws, path)
        assert load_draws(path).meta["slice"] == counters
        assert self._sample("robust").meta["slice"] == counters  # same seed, same counts

    def test_versions_in_meta(self, tmp_path):
        # a seed reproduces the draws only under the same numpy
        draws = self._sample("normal")
        versions = {"benchstat": benchstat.__version__, "numpy": np.__version__, "python": platform.python_version()}
        assert draws.meta["versions"] == versions
        path = tmp_path / "draws.bin"
        save_draws(draws, path)
        assert load_draws(path).meta["versions"] == versions

    def test_pinned_parameters_have_no_counters(self):
        rng = np.random.default_rng(6)
        m, _ = synthetic_matrix(rng, 3, 6)
        cfg = McmcConfig(chains=2, burn_in=5, adaptation=5, kept=5, fixed_sigma_a=0.03)
        draws = run_chains(build_model(m), m, cfg, seed=2)
        assert [list(chain) for chain in draws.meta["slice"]] == [["sigma_d"], ["sigma_d"]]
        assert all(list(chain["sigma_d"]) == ["proposals_per_draw"] for chain in draws.meta["slice"])

    def test_pins_survive_save_and_load(self, tmp_path):
        rng = np.random.default_rng(6)
        m, _ = synthetic_matrix(rng, 3, 6)
        spec = build_model(m, "robust")
        pins = {"fixed_sigma0": spec.y_sd, "fixed_sigma_a": 0.03, "fixed_sigma_d": 0.02, "fixed_df": 5.0}
        cfg = McmcConfig(chains=2, burn_in=5, adaptation=5, kept=5, **pins)
        path = tmp_path / "draws.bin"
        save_draws(run_chains(spec, m, cfg, seed=2), path)
        meta = load_draws(path).meta
        assert {key: meta[key] for key in pins} == pins
        unpinned = run_chains(spec, m, McmcConfig(chains=2, burn_in=5, adaptation=5, kept=5), seed=2)
        assert not [key for key in unpinned.meta if key.startswith("fixed_")]

    @pytest.mark.parametrize("pins", [{}, {"fixed_sigma_a": 0.03, "fixed_df": 5.0}], ids=["unpinned", "pinned"])
    def test_meta_records_every_setting_but_n_jobs(self, pins):
        rng = np.random.default_rng(6)
        m, _ = synthetic_matrix(rng, 3, 6)
        cfg = McmcConfig(chains=2, burn_in=5, adaptation=4, kept=5, thinning=2, n_jobs=2, **pins)
        meta = run_chains(build_model(m, "robust"), m, cfg, seed=2).meta
        settings = {"chains": 2, "burn_in": 5, "adaptation": 4, "kept": 5, "thinning": 2, **pins}
        assert set(meta) == {*settings, "iterations", "seed", "data_sha256", "slice", "versions"}
        assert {key: meta[key] for key in settings} == settings
        assert (meta["iterations"], meta["seed"]) == (5 + 4 + 5 * 2, 2)

    def test_check_source_compares_the_digest_where_the_draws_have_one(self, tmp_path):
        draws = self._sample("normal")
        rng = np.random.default_rng(6)
        m, _ = synthetic_matrix(rng, 3, 6)  # the matrix _sample drew from
        path = tmp_path / "draws.bin"
        save_draws(draws, path)
        loaded = load_draws(path)
        loaded.check_source(m)
        other = make_matrix(m.values, m.algorithms, m.datasets)
        other.values[2, 1] += 1e-12
        with pytest.raises(InputError, match="^draws and data matrix value mismatch$"):
            loaded.check_source(other)
        other.values[2, 1] = np.nan
        other.mask[2, 1] = False
        with pytest.raises(InputError, match="value mismatch"):
            loaded.check_source(other)
        del loaded.meta["data_sha256"]  # as in v1 files and older v2 files
        loaded.check_source(other)


class TestRobustVariant:
    def test_df_pinned_large_matches_normal(self):
        rng = np.random.default_rng(7)
        m, _ = synthetic_matrix(rng, 3, 20)
        cfg = McmcConfig(chains=2, burn_in=200, adaptation=200, kept=1500)
        normal = run_chains(build_model(m, "normal"), m, cfg, seed=11)
        cfg_r = McmcConfig(chains=2, burn_in=200, adaptation=200, kept=1500, fixed_df=1e6)
        robust = run_chains(build_model(m, "robust"), m, cfg_r, seed=11)
        r1 = rope_probability_matrix(normal, 0.0112)
        r2 = rope_probability_matrix(robust, 0.0112)
        off = ~np.eye(3, dtype=bool)
        assert np.abs(r1.values[off] - r2.values[off]).max() < 0.05

    def test_heavy_tailed_data_pulls_df_down(self):
        rng = np.random.default_rng(8)
        n_ds, n_alg = 40, 4
        values = 0.3 + rng.standard_t(1.5, (n_ds, n_alg)) * 0.01
        m = make_matrix(np.clip(values, 0, 1))
        spec = build_model(m, "robust")
        draws = run_chains(spec, m, McmcConfig(chains=2, burn_in=300, adaptation=300, kept=1000), seed=4)
        df = np.concatenate([c.df for c in draws.chains])
        assert df.mean() < 10
