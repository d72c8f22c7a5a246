import math
import re

import numpy as np
import pytest
from scipy import special, stats
from scipy.stats import norm

from benchstat import (
    InputError,
    PairwiseMatrix,
    chi_square_sf,
    friedman_test,
    nemenyi_pairwise,
    studentized_range_sf,
)
from benchstat.ranks import RankMatrix, average_ranks
from benchstat.data import AggregatedMatrix


def rank_matrix(ranks, scheme="average"):
    ranks = np.asarray(ranks, dtype=float)
    n, k = ranks.shape
    return RankMatrix(scheme, tuple(f"a{i}" for i in range(k)), tuple(f"d{i}" for i in range(n)), ranks)


class TestChiSquareSf:
    def test_exponential_identity(self):
        # chi-square with 2 dof is Exp(1/2)
        assert chi_square_sf(2, 2) == pytest.approx(math.exp(-1), abs=1e-12)
        assert chi_square_sf(6, 2) == pytest.approx(math.exp(-3), abs=1e-12)

    def test_zero(self):
        for k in (1, 5, 200):
            assert chi_square_sf(0, k) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            chi_square_sf(-0.1, 2)


class TestStudentizedRangeSf:
    def test_k2_closed_form(self):
        # range of 2 standard normals is sqrt(2)*|Z|
        for q in np.arange(0.5, 8.01, 0.5):
            expected = 2.0 * (1.0 - norm.cdf(q / math.sqrt(2)))
            assert studentized_range_sf(float(q), 2) == pytest.approx(expected, abs=1e-6)

    def test_q_zero(self):
        for k in (2, 5, 14, 100):
            assert studentized_range_sf(0.0, k) == 1.0

    def test_k3_critical_value(self):
        # the 5% point for k=3 sits at ~3.314 (Monte Carlo verified)
        assert studentized_range_sf(3.31, 3) > 0.05 > studentized_range_sf(3.32, 3)

    def test_monte_carlo_agreement_small(self):
        rng = np.random.default_rng(10)
        n = 400_000
        for k in (3, 5):
            z = rng.standard_normal((n, k))
            sample_range = z.max(axis=1) - z.min(axis=1)
            for q in (1.0, 2.0, 3.0):
                p_mc = float((sample_range > q).mean())
                se = math.sqrt(p_mc * (1 - p_mc) / n)
                assert studentized_range_sf(q, k) == pytest.approx(p_mc, abs=3 * se)

    def test_invalid_arguments(self):
        with pytest.raises(InputError):
            studentized_range_sf(-1.0, 3)
        with pytest.raises(InputError):
            studentized_range_sf(np.array([1.0, np.nan]), 3)
        with pytest.raises(InputError):
            studentized_range_sf(1.0, 1)

    def test_k2_erfc_far_tail(self):
        # the range of 2 standard normals is sqrt(2)|Z|, so sf(q) = erfc(q/2);
        # 10.2 and 14 are where 1 - cdf routines print noise and 0
        q = np.concatenate([np.linspace(0.0, 20.0, 81), [10.2, 14.0]])
        np.testing.assert_allclose(studentized_range_sf(q, 2), special.erfc(q / 2.0), rtol=1e-12, atol=0)
        assert f"{studentized_range_sf(10.2, 2):.6g}" == "5.49382e-13"

    def test_matches_high_precision_quadrature(self):
        mpmath = pytest.importorskip("mpmath")

        def sf(q, k):
            def integrand(z):  # phi(z) (Phi(z)^(k-1) - (Phi(z) - Phi(z-q))^(k-1))
                c = mpmath.ncdf(z)
                return mpmath.npdf(z) * (c ** (k - 1) - (c - mpmath.ncdf(z - q)) ** (k - 1))

            return k * mpmath.quad(integrand, [-mpmath.inf, 0, q / 2, mpmath.inf])

        for k in (3, 14, 50):
            for q in (1.0, 5.0, 10.0, 15.0):
                # the bracket cancels to about erfc(q/2) of its terms, so
                # carry that many digits beyond the 20 the test needs
                with mpmath.workdps(20 - int(math.log10(special.erfc(q / 2.0)))):
                    expected = float(sf(mpmath.mpf(q), k))
                assert studentized_range_sf(q, k) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("k", [2, 3, 5, 14, 50, 100])
    def test_matches_scipy_where_scipy_is_accurate(self, k):
        # scipy's tail is 1 - cdf, which is noise below about 1e-9
        q = np.linspace(0.0, 12.0, 121)
        expected = stats.studentized_range.sf(q, k, np.inf)
        accurate = expected >= 1e-9
        assert accurate.sum() > 40
        np.testing.assert_allclose(studentized_range_sf(q, k)[accurate], expected[accurate], rtol=0, atol=1e-13)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [2, 14, 100, 300, 1000])
    def test_monotone_without_warnings(self, k):
        q = np.concatenate([[0.0, 1e-300, 1e-12], np.linspace(1e-6, 40.0, 4001), [80.0, 1e9]])
        p = studentized_range_sf(q, k)
        assert p[0] == 1.0 and (np.diff(p) <= 0).all() and (p <= 1.0).all()
        assert p[-1] == 0.0 and math.copysign(1.0, p[-1]) == 1.0  # never -0
        np.testing.assert_array_equal(studentized_range_sf(q.reshape(-1, 2), k), p.reshape(-1, 2))
        # each q's value does not depend on its neighbours or its chunk
        perm = np.random.default_rng(k).permutation(q.size)
        np.testing.assert_array_equal(studentized_range_sf(q[perm], k), p[perm])


class TestFriedman:
    def test_consistent_ranking_closed_case(self):
        result = friedman_test(rank_matrix([[1, 2, 3]] * 3))
        assert result.statistic == pytest.approx(6.0, abs=1e-12)
        assert result.p_value == pytest.approx(math.exp(-3), abs=1e-9)
        assert result.dof == 2
        assert result.n_subjects == 3 and result.k_treatments == 3

    def test_all_tied(self):
        result = friedman_test(rank_matrix([[2, 2, 2]] * 4))
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == 1.0

    def test_k2_sign_test_reduction(self):
        # untied k=2 data: statistic reduces to (wins_A - wins_B)^2 / N
        rng = np.random.default_rng(5)
        n = 10
        wins_a = 7
        ranks = np.array([[1.0, 2.0]] * wins_a + [[2.0, 1.0]] * (n - wins_a))
        rng.shuffle(ranks)
        result = friedman_test(rank_matrix(ranks))
        expected = (wins_a - (n - wins_a)) ** 2 / n
        assert result.statistic == pytest.approx(expected, abs=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(6)
        ranks = np.array([rng.permutation([1.0, 2.0, 3.0, 4.0]) for _ in range(8)])
        base = friedman_test(rank_matrix(ranks)).statistic
        perm = rng.permutation(4)
        cols = friedman_test(rank_matrix(ranks[:, perm])).statistic
        rows = friedman_test(rank_matrix(ranks[rng.permutation(8)])).statistic
        assert base == pytest.approx(cols, abs=1e-12)
        assert base == pytest.approx(rows, abs=1e-12)

    def test_incomplete_matrix_rejected(self):
        ranks = np.array([[1.0, 2.0], [np.nan, 1.0]])
        with pytest.raises(InputError, match="complete-case"):
            friedman_test(rank_matrix(ranks))

    def test_too_few_subjects(self):
        with pytest.raises(InputError, match="2 subjects"):
            friedman_test(rank_matrix([[1, 2]]))


class TestNemenyi:
    def test_equal_mean_ranks_give_p_one(self):
        ranks = np.array([[1.5, 1.5, 3.0]] * 5)
        m = nemenyi_pairwise(rank_matrix(ranks))
        assert m.value("a0", "a1") == 1.0

    def test_k2_matches_normal_tail(self):
        n, gap = 100, 0.2
        ranks = np.array([[1.0, 2.0]] * 60 + [[2.0, 1.0]] * 40)
        r = rank_matrix(ranks)
        mean_gap = abs(ranks[:, 0].mean() - ranks[:, 1].mean())
        assert mean_gap == pytest.approx(gap)
        m = nemenyi_pairwise(r)
        expected = 2.0 * (1.0 - norm.cdf(gap * math.sqrt(n)))
        assert m.value("a0", "a1") == pytest.approx(expected, abs=1e-6)

    def test_monotone_in_gap(self):
        # p-values shrink as the mean-rank gap grows (fixed N, k)
        previous = 1.1
        for wins in (50, 60, 70, 80, 90):
            ranks = np.array([[1.0, 2.0]] * wins + [[2.0, 1.0]] * (100 - wins))
            p = nemenyi_pairwise(rank_matrix(ranks)).value("a0", "a1")
            assert p <= previous
            previous = p

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0, 1, (20, 5))
        m = AggregatedMatrix(
            [f"a{i}" for i in range(5)],
            [f"d{i}" for i in range(20)],
            values,
            np.ones_like(values, bool),
        )
        pw = nemenyi_pairwise(average_ranks(m))
        np.testing.assert_array_equal(pw.values, pw.values.T)
        off_diag = pw.values[~np.eye(5, dtype=bool)]
        assert ((off_diag >= 0) & (off_diag <= 1)).all()
        assert np.isnan(np.diag(pw.values)).all()


@pytest.mark.parametrize("call, error, message", [
    (lambda: PairwiseMatrix(("a", "b"), np.full((2, 2), np.nan), "t_p"), ValueError, "unknown kind: 't_p'"),
    (lambda: chi_square_sf(1.0, 0), InputError, "chi_square_sf requires k >= 1, got 0"),
    (lambda: friedman_test(rank_matrix([[1.0], [1.0], [1.0]])), InputError, "need at least 2 treatments, got 1"),
], ids=["pairwise kind", "chi-square dof", "one treatment"])
def test_library_input_checks(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        call()
