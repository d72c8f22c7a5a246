import subprocess
import sys
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
import pytest
from scipy.stats import rankdata

import benchstat
from benchstat import (
    AggregatedMatrix,
    InputError,
    average_ranks,
    dense_ranks,
    mean_rank_summary,
    rank_histogram,
)
from benchstat.ranks import RankMatrix, _round3, histogram_to_csv, histogram_to_svg


def matrix(values, algorithms=None, datasets=None):
    values = np.asarray(values, dtype=float)
    mask = ~np.isnan(values)
    n_ds, n_alg = values.shape
    algorithms = algorithms or [f"a{i}" for i in range(n_alg)]
    datasets = datasets or [f"d{i}" for i in range(n_ds)]
    return AggregatedMatrix(algorithms, datasets, values, mask)


class TestDenseRanks:
    def test_rounding_merges_close_values(self):
        r = dense_ranks(matrix([[0.1000, 0.1004, 0.2000]]))
        np.testing.assert_array_equal(r.ranks[0], [1, 1, 2])

    def test_strict_order(self):
        r = dense_ranks(matrix([[0.10, 0.20, 0.30]]))
        np.testing.assert_array_equal(r.ranks[0], [1, 2, 3])

    def test_rounding_boundary(self):
        # 0.1004 -> 0.100 but 0.1006 -> 0.101 (half-up to 3 decimals)
        r = dense_ranks(matrix([[0.1004, 0.1006]]))
        np.testing.assert_array_equal(r.ranks[0], [1, 2])

    def test_half_up_at_exact_boundary(self):
        # 0.0005 rounds up to 0.001, splitting it from 0.0004
        r = dense_ranks(matrix([[0.0004, 0.0005]]))
        np.testing.assert_array_equal(r.ranks[0], [1, 2])

    def test_contiguous_range_from_one(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1, (20, 6))
        r = dense_ranks(matrix(values))
        for row in r.ranks:
            present = row[~np.isnan(row)].astype(int)
            assert set(present) == set(range(1, present.max() + 1))

    def test_missing_cells_unranked(self):
        r = dense_ranks(matrix([[0.1, np.nan, 0.3]]))
        assert np.isnan(r.ranks[0, 1])
        np.testing.assert_array_equal(r.ranks[0, [0, 2]], [1, 2])

    def test_too_few_algorithms_skipped_with_warning(self):
        with pytest.warns(UserWarning, match="<2 present algorithms"):
            r = dense_ranks(matrix([[0.1, np.nan], [0.2, 0.3]]))
        assert np.isnan(r.ranks[0]).all()
        assert not np.isnan(r.ranks[1]).any()


def decimal_round3(x: float) -> float:
    """Reference: decimal half-up rounding of the shortest repr."""
    return float(Decimal(repr(x)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def assert_rounds_like_decimal(values):
    values = np.unique(values)  # one reference call per distinct value
    got = _round3(values)
    expected = np.array([decimal_round3(v) for v in values.tolist()])
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


class TestRound3:
    def test_every_mean_of_two_grid_values_and_its_negative(self):
        grid = np.arange(1001) / 1000.0  # 0.000 .. 1.000 as parsed from 3 decimals
        i, j = np.triu_indices(len(grid))
        means = (grid[i] + grid[j]) / 2.0
        assert len(means) == 501_501
        assert_rounds_like_decimal(np.concatenate([means, -means]))

    def test_binary_mean_below_the_decimal_midpoint_rounds_down(self):
        # 0.002 and 0.019 average to 0.010499999999999999, not 0.0105
        mean = (0.002 + 0.019) / 2.0
        assert repr(mean) == "0.010499999999999999"
        assert _round3(np.array([mean, -mean])).tolist() == [0.010, -0.010]

    def test_four_decimal_grid_and_uniform_values(self):
        rng = np.random.default_rng(7)
        assert_rounds_like_decimal(np.arange(-20_000, 20_001) / 10_000.0)
        assert_rounds_like_decimal(rng.uniform(-2.0, 2.0, 50_000))


class TestAverageRanks:
    def test_fractional_tie(self):
        r = average_ranks(matrix([[0.1, 0.1, 0.3]]))
        np.testing.assert_array_equal(r.ranks[0], [1.5, 1.5, 3])

    def test_no_ties(self):
        r = average_ranks(matrix([[0.1, 0.2, 0.3]]))
        np.testing.assert_array_equal(r.ranks[0], [1, 2, 3])

    def test_all_equal(self):
        r = average_ranks(matrix([[0.2, 0.2, 0.2, 0.2]]))
        np.testing.assert_array_equal(r.ranks[0], [2.5] * 4)

    def test_rank_sum_invariant(self):
        rng = np.random.default_rng(1)
        values = np.round(rng.uniform(0, 1, (10, 5)), 2)  # force some ties
        r = average_ranks(matrix(values))
        k = 5
        np.testing.assert_allclose(r.ranks.sum(axis=1), k * (k + 1) / 2)

    def test_no_rounding_in_average_scheme(self):
        r = average_ranks(matrix([[0.1000, 0.1004]]))
        np.testing.assert_array_equal(r.ranks[0], [1, 2])


def test_both_schemes_match_scipy_rankdata_with_ties_and_gaps():
    rng = np.random.default_rng(4)
    values = rng.integers(0, 6, (200, 7)) / 1000.0  # on the grid: heavy ties
    values[rng.random(values.shape) < 0.15] = np.nan
    values[:, :2] = 0.002  # at least two present cells, so no dataset is skipped
    for rank_fn, method in ((average_ranks, "average"), (dense_ranks, "dense")):
        ranked = rank_fn(matrix(values)).ranks
        for row, got in zip(values, ranked):
            present = ~np.isnan(row)
            np.testing.assert_array_equal(got[present], rankdata(row[present], method=method))
            assert np.isnan(got[~present]).all()


class TestRankInvariance:
    def test_affine_shift_on_grid_preserves_dense_ranks(self):
        # shifts by multiples of 0.001 commute with the rounding grid
        rng = np.random.default_rng(2)
        values = rng.integers(0, 500, (15, 6)) / 1000.0
        shifted = values + 0.005
        r1 = dense_ranks(matrix(values))
        r2 = dense_ranks(matrix(shifted))
        np.testing.assert_array_equal(r1.ranks, r2.ranks)

    def test_monotone_transform_preserves_average_ranks(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.1, 0.9, (10, 4))
        r1 = average_ranks(matrix(values))
        r2 = average_ranks(matrix(values**2))  # strictly increasing on (0,1)
        np.testing.assert_array_equal(r1.ranks, r2.ranks)


class TestMeanRankSummary:
    def test_single_dataset(self):
        summary = mean_rank_summary(dense_ranks(matrix([[0.1, 0.2]])))
        assert summary == [("a0", 1.0, 1), ("a1", 2.0, 0)]

    def test_dense_ties_both_top(self):
        r = dense_ranks(matrix([[0.1, 0.1], [0.2, 0.2]]))
        summary = mean_rank_summary(r)
        assert summary == [("a0", 1.0, 2), ("a1", 1.0, 2)]

    def test_tie_broken_by_identifier(self):
        r = dense_ranks(matrix([[0.1, 0.1]], algorithms=["zeta", "alpha"]))
        summary = mean_rank_summary(r)
        assert [row[0] for row in summary] == ["alpha", "zeta"]

    def test_mean_over_present_only(self):
        r = dense_ranks(matrix([[0.1, 0.2, 0.3], [np.nan, 0.1, 0.2]]))
        summary = {a: m for a, m, _ in mean_rank_summary(r)}
        assert summary["a0"] == 1.0  # present on one dataset only


class TestRankHistogram:
    def test_always_first(self):
        r = dense_ranks(matrix([[0.1, 0.2], [0.1, 0.3], [0.0, 0.9]]))
        counts = rank_histogram(r)
        np.testing.assert_array_equal(counts[0], [3, 0])

    def test_row_sums_conserved(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0, 1, (12, 5))
        values[3, 2] = np.nan
        m = matrix(values)
        counts = rank_histogram(dense_ranks(m))
        np.testing.assert_array_equal(counts.sum(axis=1), m.mask.sum(axis=0))

    def test_planted_ordering_is_diagonal(self):
        values = np.tile([0.1, 0.2, 0.3, 0.4], (6, 1))
        counts = rank_histogram(dense_ranks(matrix(values)))
        np.testing.assert_array_equal(counts, np.eye(4, dtype=int) * 6)

    def test_matches_direct_count_with_ties_and_missing_cells(self):
        rng = np.random.default_rng(5)
        ranks = rng.integers(1, 6, (40, 7)).astype(float)  # repeats are ties
        ranks[rng.random(ranks.shape) < 0.2] = np.nan
        r = RankMatrix("dense", [f"a{i}" for i in range(7)], [f"d{i}" for i in range(40)], ranks)
        direct = [[int((ranks[:, a] == k).sum()) for k in range(1, 6)] for a in range(7)]
        np.testing.assert_array_equal(rank_histogram(r), direct)

    def test_average_scheme_rejected(self):
        with pytest.raises(InputError, match="dense"):
            rank_histogram(average_ranks(matrix([[0.1, 0.2]])))

    def test_csv_export(self):
        text = histogram_to_csv(dense_ranks(matrix([[0.1, 0.2]])))
        assert text.splitlines()[0] == "algorithm,rank,count"
        assert "a0,1,1" in text

    def test_svg_export_deterministic(self):
        r = dense_ranks(matrix([[0.1, 0.2], [0.3, 0.2]]))
        svg1 = histogram_to_svg(r)
        svg2 = histogram_to_svg(r)
        assert svg1 == svg2
        assert svg1.startswith("<svg")


def test_render_loads_neither_nhst_nor_threshold():
    # ranks serialises through render and nhst imports ranks, so render may
    # name nhst and threshold types in annotations only.  The package's
    # __init__ imports every module, so the fresh interpreter imports render
    # under a bare package object instead.
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('benchstat')\n"
        "pkg.__path__ = [sys.argv[1]]\n"
        "sys.modules['benchstat'] = pkg\n"
        "import benchstat.render\n"
        "print(*sorted(m for m in sys.modules if m.startswith('benchstat.')))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, benchstat.__path__[0]],
        capture_output=True, text=True, check=True,
    )
    loaded = run.stdout.split()
    assert "benchstat.render" in loaded
    assert "benchstat.nhst" not in loaded and "benchstat.threshold" not in loaded
