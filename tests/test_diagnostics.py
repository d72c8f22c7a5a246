import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import benchstat
from benchstat import (
    InputError,
    McmcConfig,
    build_model,
    diagnostic_report,
    effective_sample_size,
    posterior_predictive_check,
    psrf,
    run_chains,
)
from benchstat.banova import PosteriorDraws
from benchstat.data import AggregatedMatrix
from benchstat import diagnostics
from benchstat.diagnostics import _DIRECT_LAGS, DiagnosticRow, _chain_ess


def geyer_ess_loop(x):
    """Reference chain ESS: FFT autocorrelations, then Geyer's initial
    positive sequence summed pair by pair until the first nonpositive pair."""
    n = len(x)
    x = x - x.mean()
    size = 1
    while size < 2 * n:
        size *= 2
    f = np.fft.rfft(x, size)
    rho = np.fft.irfft(f * np.conjugate(f), size)[:n]
    rho = rho / rho[0]
    tau = -1.0
    m = 0
    while 2 * m + 1 < n:
        gamma = rho[2 * m] + rho[2 * m + 1]
        if gamma <= 0.0:
            break
        tau += 2.0 * gamma
        m += 1
    return n / max(tau, 1.0 / n)


def stop_lag(x):
    """First lag 2m whose Geyer pair sum rho[2m] + rho[2m+1] is nonpositive."""
    n = len(x)
    x = x - x.mean()
    rho = np.correlate(x, x, "full")[n - 1 :] / np.dot(x, x)
    pairs = rho[0 : n - 1 : 2] + rho[1:n:2]
    return 2 * int(np.argmax(pairs <= 0.0)) if (pairs <= 0.0).any() else n


def count_rfft(monkeypatch):
    """Record the shape of every ``np.fft.rfft`` input; return the list."""
    calls = []
    rfft = np.fft.rfft

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    return calls


def ar1(rng, phi, n):
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0] / math.sqrt(1 - phi * phi)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + eps[i]
    return x


class TestPsrf:
    def test_hand_computed_case(self):
        # two identical chains (1,2,3,4): B = 0, so R-hat = sqrt((n-1)/n)
        r = psrf([[1, 2, 3, 4], [1, 2, 3, 4]])
        assert r == pytest.approx(math.sqrt(3 / 4), abs=1e-12)

    def test_shifted_chains_inflate(self):
        r = psrf([[1, 2, 3, 4], [11, 12, 13, 14]])
        # W = 5/3, B/n = means (2.5, 12.5) -> var 50; Var+ = 3/4*5/3 + 50
        assert r == pytest.approx(math.sqrt((1.25 + 50) / (5 / 3)), abs=1e-12)

    def test_convergent_chains_near_one(self):
        rng = np.random.default_rng(0)
        chains = rng.standard_normal((4, 10_000))
        r = psrf(chains)
        assert abs(r - 1.0) < 1e-2

    def test_constant_chains_undefined(self):
        r = psrf(np.ones((3, 100)))
        assert r is None

    def test_affine_invariance_exact(self):
        rng = np.random.default_rng(1)
        chains = rng.standard_normal((3, 500))
        base = psrf(chains)
        scaled = psrf(3.0 * chains + 2.0)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_split_detects_trend(self):
        # each chain drifts; whole chains agree with each other but their
        # halves do not, so only the split estimator flags the problem
        trend = np.linspace(0, 5, 2000)
        rng = np.random.default_rng(3)
        chains = trend[None, :] + 0.1 * rng.standard_normal((4, 2000))
        assert psrf(chains) < 1.05
        assert psrf(chains, split=True) > 1.5

    def test_input_validation(self):
        with pytest.raises(InputError, match="2-D"):
            psrf([1.0, 2.0, 3.0])
        with pytest.raises(InputError, match="2 chains"):
            psrf([[1.0, 2.0, 3.0]])


class TestEss:
    def test_iid_close_to_n(self):
        rng = np.random.default_rng(4)
        n_total = 4 * 5000
        ess = effective_sample_size(rng.standard_normal((4, 5000)))
        assert 0.9 * n_total < ess < 1.1 * n_total

    def test_ar1_matches_theory(self):
        # AR(1) with phi: tau = (1+phi)/(1-phi) = 19 at phi = 0.9
        rng = np.random.default_rng(5)
        phi, n = 0.9, 200_000
        chains = np.stack([ar1(rng, phi, n) for _ in range(2)])
        expected = 2 * n / ((1 + phi) / (1 - phi))
        assert effective_sample_size(chains) == pytest.approx(expected, rel=0.2)

    def test_anticorrelated_exceeds_n(self):
        rng = np.random.default_rng(6)
        eps = rng.standard_normal((2, 10_001))
        chains = eps[:, 1:] - 0.45 * eps[:, :-1]  # negative lag-1 autocorrelation
        assert effective_sample_size(chains) > 2 * 10_000

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_capped_at_s_log10_s(self, m):
        # a chain of 2 draws has one positive pair sum and tau 0, so ESS n^2
        n = 2
        chains = np.tile(np.arange(n, dtype=float), (m, 1))
        assert _chain_ess(chains).sum() == m * n * n
        assert effective_sample_size(chains) == m * n * np.log10(m * n)

    def test_constant_chain_rejected(self):
        with pytest.raises(InputError, match="constant chain"):
            effective_sample_size(np.ones((2, 50)))

    def test_single_chain_rejected(self):
        with pytest.raises(InputError, match="2 chains"):
            effective_sample_size(np.zeros((1, 50)))

    @pytest.mark.parametrize("shape", [(2, 0), (2, 1), (3, 1)])
    def test_chains_of_fewer_than_two_draws_rejected(self, shape):
        with pytest.raises(InputError, match="^effective_sample_size requires chains of length >= 2$"):
            effective_sample_size(np.zeros(shape))

    @pytest.mark.parametrize("n", [4000, 4001])
    @pytest.mark.parametrize("phi", [-0.5, 0.0, 0.9])
    def test_chain_ess_matches_loop_on_ar1(self, phi, n):
        x = ar1(np.random.default_rng(8), phi, n)
        assert _chain_ess(x) == pytest.approx(geyer_ess_loop(x), rel=1e-12)

    @pytest.mark.parametrize("n", [51, 501])
    def test_chain_ess_matches_loop_when_no_pair_truncates(self, n):
        # the autocorrelations sum to 1/2, so when every pair sum is positive
        # tau is 0 (clamped to 1/n) on even n and -2 rho[n-1] on odd n; an
        # alternating chain with opposite ends keeps tau above the clamp
        t = np.arange(n)
        x = np.where(t == 0, 2.0, np.where(t == n - 1, -2.0, (-1.0) ** t))
        xc = x - x.mean()
        rho = np.correlate(xc, xc, "full")[n - 1 :] / np.dot(xc, xc)
        assert (rho[0 : n - 1 : 2] + rho[1:n:2] > 0).all()
        assert geyer_ess_loop(x) < n * n
        assert _chain_ess(x) == pytest.approx(geyer_ess_loop(x), rel=1e-12)

    @pytest.mark.parametrize("n", [5000, 4999])
    def test_chain_ess_is_per_row_in_one_call(self, n):
        rng = np.random.default_rng(10)
        x = np.stack([ar1(rng, phi, n) for phi in (-0.5, 0.0, 0.5, 0.9)])
        ess = _chain_ess(x)
        assert ess.shape == (4,)
        for row, value in zip(x, ess):
            assert value == pytest.approx(geyer_ess_loop(row), rel=1e-12)

    def test_constant_row_among_others_rejected(self):
        x = np.random.default_rng(11).standard_normal((3, 100))
        x[1] = 0.25
        with pytest.raises(InputError, match="constant chain"):
            _chain_ess(x)

    @pytest.mark.parametrize("n", [2, 3, 5, 63, 64, 65, 999, 1000, 4000, 4001])
    @pytest.mark.parametrize("phi", [-0.5, 0.0, 0.5, 0.9, 0.99, "walk", "alternating"])
    def test_direct_lags_match_loop(self, phi, n):
        # an alternating chain keeps its pair sums positive to its last lag
        rng = np.random.default_rng(12)
        if phi == "alternating":
            x = (-1.0) ** np.arange(n)
        elif phi == "walk":
            x = np.cumsum(rng.standard_normal(n))
        else:
            x = ar1(rng, phi, n)
        assert _chain_ess(x) == pytest.approx(geyer_ess_loop(x), rel=1e-12)

    def test_rows_on_both_sides_of_the_cutoff_in_one_call(self):
        rng = np.random.default_rng(13)
        n = 5000
        x = np.stack(
            [ar1(rng, phi, n) for phi in (0.0, 0.5, 0.99)] + [np.cumsum(rng.standard_normal(n))]
        )
        ends = [stop_lag(row) for row in x]
        assert min(ends) < _DIRECT_LAGS < max(ends)
        for row, value in zip(x, _chain_ess(x)):
            assert value == pytest.approx(geyer_ess_loop(row), rel=1e-12)

    def test_well_mixed_rows_need_no_fft(self, monkeypatch):
        rng = np.random.default_rng(14)
        x = np.stack([ar1(rng, 0.0, 5000) for _ in range(4)])

        def no_fft(*args, **kwargs):
            raise AssertionError("the FFT ran on well-mixed rows")

        monkeypatch.setattr(np.fft, "rfft", no_fft)
        ess = _chain_ess(x)
        monkeypatch.undo()
        for row, value in zip(x, ess):
            assert value == pytest.approx(geyer_ess_loop(row), rel=1e-12)

    def test_slowly_mixing_row_reaches_the_fft(self, monkeypatch):
        x = ar1(np.random.default_rng(15), 0.99, 5000)
        calls = count_rfft(monkeypatch)
        _chain_ess(x)
        assert calls == [(1, x.size)]

    def test_short_row_positive_at_its_last_lag_reaches_the_fft(self, monkeypatch):
        # on an even length a chain's pair sums add up to 1/2, so a slowly
        # mixing one turns a pair nonpositive before its n - 1 lags run out;
        # this alternating chain's pair sums are each 1/n, all positive
        x = (-1.0) ** np.arange(40)
        assert stop_lag(x) == x.size
        calls = count_rfft(monkeypatch)
        _chain_ess(x)
        assert calls == [(1, x.size)]


def test_cli_import_does_not_load_scipy_fft():
    # the FFT pads to a power of two found with int.bit_length, and scipy, the
    # process pool and its start methods are imported only where a command
    # uses them, so importing the CLI loads none of them; dense ranks round
    # without decimal
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import benchstat.cli\n"
        "print(*sorted(sys.modules))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, os.path.dirname(benchstat.__path__[0])],
        capture_output=True, text=True, check=True,
    )
    loaded = run.stdout.split()
    assert "benchstat.cli" in loaded
    heavy = ("scipy", "multiprocessing", "concurrent.futures", "decimal")
    assert [m for m in loaded if m.startswith(heavy)] == []


def small_fit(seed=0, variant="normal", n_alg=3, n_ds=10, kept=500):
    rng = np.random.default_rng(seed)
    values = 0.3 + rng.normal(0, 0.03, n_alg)[None, :] + rng.normal(0, 0.05, n_ds)[:, None]
    values = values + rng.normal(0, 0.02, (n_ds, n_alg))
    m = AggregatedMatrix(
        [f"a{i}" for i in range(n_alg)],
        [f"d{i}" for i in range(n_ds)],
        values,
        np.ones((n_ds, n_alg), bool),
    )
    spec = build_model(m, variant)
    cfg = McmcConfig(chains=2, burn_in=200, adaptation=200, kept=kept)
    return m, run_chains(spec, m, cfg, seed=seed)


class TestDiagnosticReport:
    def test_rows_cover_all_parameters(self):
        _, draws = small_fit()
        rows = diagnostic_report(draws)
        names = {row.parameter for row in rows}
        assert "beta" in names and "sigma0" in names
        assert "alpha[a0]" in names and "delta[d9]" in names
        assert all(row.r_hat is None or row.r_hat > 0.9 for row in rows)
        assert all(row.ess is None or row.ess > 0 for row in rows)

    def test_robust_reports_df(self):
        _, draws = small_fit(variant="robust")
        names = {row.parameter for row in diagnostic_report(draws)}
        assert "df" in names

    def test_robust_report_matches_per_chain_loop(self, monkeypatch):
        # sigma0 and df mix slowly here: a df row runs past the direct lags
        # into the FFT, the other rows stop before
        _, draws = small_fit(variant="robust", kept=2000)
        calls = count_rfft(monkeypatch)
        rows = diagnostic_report(draws)
        assert 0 < sum(shape[0] for shape in calls) < draws.n_chains * len(rows)
        params = dict(draws.scalar_chains())
        assert [row.parameter for row in rows] == list(params)
        for row in rows:
            chains = params[row.parameter]
            expected = sum(geyer_ess_loop(chain) for chain in chains)
            assert row.ess == pytest.approx(expected, rel=1e-12)
            assert row.r_hat == psrf(chains)

    @pytest.mark.parametrize("variant", ["normal", "robust"])
    def test_batched_rows_equal_per_parameter_calls(self, variant, monkeypatch):
        # 42 datasets: the last batch of columns is shorter than the others;
        # beta alternates, so its pair sums stay positive to the last of 63
        # lags and its rows take the FFT
        _, draws = small_fit(variant=variant, n_ds=42, kept=63)
        draws.block[:, 0] += (-1.0) ** np.arange(63)
        draws.block[:, 2] = 0.25  # alpha[a1] constant: R-hat and ESS undefined
        draws.block[1, 5] = 1.5  # one constant chain of delta[d1]: ESS undefined
        batches = []
        moments = diagnostics._moments

        def recorded(x, work):
            batches.append(len(x))
            return moments(x, work)

        monkeypatch.setattr(diagnostics, "_moments", recorded)
        calls = count_rfft(monkeypatch)
        rows = diagnostic_report(draws)
        monkeypatch.undo()
        assert calls and len(batches) > 1 and 0 < batches[-1] < batches[0] == max(batches)
        expected = []
        for name, chains in draws.scalar_chains():
            try:
                ess = effective_sample_size(chains)
            except InputError:
                ess = None
            expected.append(repr(DiagnosticRow(name, psrf(chains), ess)))
        assert list(map(repr, rows)) == expected
        assert (rows[2].r_hat, rows[2].ess) == (None, None)
        assert rows[5].r_hat is not None and rows[5].ess is None

    def test_peak_memory_stays_near_the_held_draws(self):
        # the report takes a few columns of chains at a time, not all of them
        rng = np.random.default_rng(9)
        n_alg, n_ds, n = 6, 40, 2000
        block = rng.standard_normal((4, 1 + n_alg + n_ds + 3, n))
        block[:, -3:] = np.abs(block[:, -3:])  # sigma0, sigma_a, sigma_d
        draws = PosteriorDraws(
            "normal", [f"a{i}" for i in range(n_alg)], [f"d{i}" for i in range(n_ds)], block
        )
        held = block.nbytes
        tracemalloc.start()  # counts only what the report allocates
        try:
            diagnostic_report(draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * held


class TestPosteriorPredictiveCheck:
    def test_well_specified_p_near_half(self):
        m, draws = small_fit(seed=1, kept=1000)
        result = posterior_predictive_check(draws, m, n_draws=500, seed=0)
        assert 0.3 < result.bayesian_p_value < 0.7
        assert len(result.discrepancies) == 500

    def test_gross_outlier_drives_p_to_zero(self):
        m, draws = small_fit(seed=2, kept=1000)
        bad = AggregatedMatrix(m.algorithms, m.datasets, m.values.copy(), m.mask.copy())
        bad.values[0, 0] = 1.0  # far outside the fitted noise scale
        result = posterior_predictive_check(draws, bad, n_draws=400, seed=0)
        assert result.bayesian_p_value < 0.05

    def test_negative_fraction_small_but_tracked(self):
        m, draws = small_fit(seed=3, kept=1000)
        result = posterior_predictive_check(draws, m, n_draws=300, seed=1)
        assert 0.0 <= result.negative_replicate_fraction < 0.5

    def test_robust_variant_rejected(self):
        m, draws = small_fit(seed=4, variant="robust", kept=200)
        with pytest.raises(InputError, match="normal model"):
            posterior_predictive_check(draws, m, n_draws=10)

    def test_n_draws_bounds(self):
        m, draws = small_fit(seed=5, kept=200)
        with pytest.raises(InputError, match="n_draws"):
            posterior_predictive_check(draws, m, n_draws=0)
        with pytest.raises(InputError, match="exceeds total"):
            posterior_predictive_check(draws, m, n_draws=10_000)

    def test_label_mismatch_rejected(self):
        m, draws = small_fit(seed=6, kept=200)
        other = AggregatedMatrix(
            ["x", "y", "z"], m.datasets, m.values, m.mask
        )
        with pytest.raises(InputError, match="label mismatch"):
            posterior_predictive_check(draws, other, n_draws=10)

    def test_deterministic_per_seed(self):
        m, draws = small_fit(seed=7, kept=400)
        r1 = posterior_predictive_check(draws, m, n_draws=100, seed=3)
        r2 = posterior_predictive_check(draws, m, n_draws=100, seed=3)
        assert r1.bayesian_p_value == r2.bayesian_p_value
        assert r1.discrepancies == r2.discrepancies
