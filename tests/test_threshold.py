import numpy as np
import pytest

from benchstat import (
    SynthSpec,
    ThresholdReport,
    aggregate_errors,
    cv_deltas,
    generate_synthetic,
    ingest_error_table,
    irrelevance_threshold,
    resample_deltas,
    top_k_algorithms,
)
from benchstat.data import AggregatedMatrix


def matrix_from_row(values, algorithms=None):
    values = np.asarray([values], dtype=float)
    algorithms = algorithms or [f"a{i}" for i in range(values.shape[1])]
    return AggregatedMatrix(algorithms, ["d0"], values, ~np.isnan(values))


class TestTopK:
    def test_plain_top3(self):
        top = top_k_algorithms(matrix_from_row([0.1, 0.2, 0.3, 0.4]), 3)
        assert top.tolist() == [[True, True, True, False]]

    def test_boundary_ties_all_included(self):
        top = top_k_algorithms(matrix_from_row([0.1, 0.2, 0.2, 0.2]), 3)
        assert top.tolist() == [[True, True, True, True]]

    def test_k1_unique_minimum(self):
        top = top_k_algorithms(matrix_from_row([0.3, 0.1, 0.2]), 1)
        assert top.tolist() == [[False, True, False]]

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
            top_k_algorithms(matrix_from_row([0.1, 0.2]), 0)

    def test_fewer_algorithms_than_k(self):
        top = top_k_algorithms(matrix_from_row([0.1, 0.2]), 3)
        assert top.tolist() == [[True, True]]

    def test_datasets_without_present_algorithms_get_empty_sets(self):
        none = AggregatedMatrix([], ["d0", "d1"], np.zeros((2, 0)), np.zeros((2, 0), bool))
        assert top_k_algorithms(none, 3).tolist() == [[], []]
        assert top_k_algorithms(matrix_from_row([np.nan, np.nan]), 1).tolist() == [[False, False]]

    def test_mask_has_the_matrix_shape(self):
        m = matrix_from_row([0.3, np.nan, 0.1])
        top = top_k_algorithms(m, 1)
        assert top.dtype == bool and top.shape == m.values.shape

    def test_top3_never_more_pairs_than_all(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1, (8, 6))
        m = AggregatedMatrix(
            [f"a{i}" for i in range(6)],
            [f"d{i}" for i in range(8)],
            values,
            np.ones_like(values, bool),
        )
        top3 = top_k_algorithms(m, 3)
        top_all = top_k_algorithms(m, 6)
        assert top3.sum() <= top_all.sum()


HEADER = "dataset,algorithm,subset,test_error,cv_error\n"


def two_subset_table(rows):
    """rows: (dataset, algorithm, e1, e2, cv1, cv2); a cv of None is a blank field."""
    lines = [HEADER]
    for dataset, algorithm, e1, e2, cv1, cv2 in rows:
        for subset, error, cv in ((1, e1, cv1), (2, e2, cv2)):
            lines.append(f"{dataset},{algorithm},{subset},{error!r},{'' if cv is None else repr(cv)}\n")
    return ingest_error_table("".join(lines))


ONE = np.array([[True]])  # the one (dataset, algorithm) cell of a table


class TestDeltas:
    def test_resample_delta(self):
        table = two_subset_table([("d", "a", 0.10, 0.13, None, None)])
        assert resample_deltas(table, ONE) == [pytest.approx(0.03)]

    def test_resample_delta_zero(self):
        table = two_subset_table([("d", "a", 0.2, 0.2, None, None)])
        assert resample_deltas(table, ONE) == [0.0]

    def test_resample_skips_missing_subset(self):
        table = ingest_error_table(HEADER + "d,a,1,0.1,\n")
        with pytest.warns(UserWarning, match="missing subset"):
            assert resample_deltas(table, ONE) == []

    def test_subset_relabeling_invariance(self):
        t1 = two_subset_table([("d", "a", 0.10, 0.13, None, None)])
        t2 = two_subset_table([("d", "a", 0.13, 0.10, None, None)])
        assert resample_deltas(t1, ONE) == resample_deltas(t2, ONE)

    def test_cv_delta_both_subsets_contribute(self):
        table = two_subset_table([("d", "a", 0.12, 0.12, 0.10, 0.12)])
        deltas = cv_deltas(table, ONE)
        assert sorted(deltas) == [pytest.approx(0.0), pytest.approx(0.02)]

    def test_cv_delta_skips_missing_cv(self):
        table = two_subset_table([("d", "a", 0.12, 0.12, None, 0.12)])
        with pytest.warns(UserWarning, match="without cv_error"):
            deltas = cv_deltas(table, ONE)
        assert deltas == [0.0]

    @pytest.mark.parametrize("deltas", [resample_deltas, cv_deltas])
    def test_mask_of_another_shape_rejected(self, deltas):
        table = two_subset_table([("d", "a", 0.1, 0.1, None, None)])
        with pytest.raises(ValueError, match=r"\(1, 2\).*\(1, 1\)"):
            deltas(table, np.array([[True, False]]))


class TestIrrelevanceThreshold:
    def test_threshold_is_minimum_of_medians(self):
        table = two_subset_table(
            [
                ("d1", "a", 0.10, 0.13, 0.11, 0.14),  # resample delta 0.03, cv deltas 0.01
                ("d2", "a", 0.20, 0.21, 0.19, 0.22),  # resample delta 0.01, cv deltas 0.01
            ]
        )
        report = irrelevance_threshold(table, k=1)
        assert report.median_delta_resample == pytest.approx(0.02)
        assert report.median_delta_cv == pytest.approx(0.01)
        assert report.threshold == pytest.approx(0.01)
        assert report.threshold <= report.median_delta_resample
        assert report.threshold <= report.median_delta_cv

    def test_zero_noise_synthetic_gives_zero(self):
        spec = SynthSpec(
            beta=0.2,
            alpha={"a": 0.0, "b": 0.05, "c": 0.1},
            delta={f"d{i}": 0.01 * i for i in range(6)},
        )
        report = irrelevance_threshold(generate_synthetic(spec, seed=0))
        assert report.median_delta_resample == 0.0
        assert report.median_delta_cv == 0.0
        assert report.threshold == 0.0

    def test_even_count_median_is_midpoint(self):
        table = two_subset_table(
            [
                ("d1", "a", 0.10, 0.12, None, None),  # delta 0.02
                ("d2", "a", 0.10, 0.14, None, None),  # delta 0.04
            ]
        )
        report = irrelevance_threshold(table, k=1)
        assert report.median_delta_resample == pytest.approx(0.03)

    def test_degraded_mode_without_cv(self):
        table = two_subset_table([("d1", "a", 0.10, 0.12, None, None)])
        with pytest.warns(UserWarning):
            report = irrelevance_threshold(table, k=1)
        assert report.median_delta_cv is None
        assert report.threshold == report.median_delta_resample

    def test_noise_scale_concentration(self):
        # delta is |e2 - e1| with independent N(0, s) per subset, i.e.
        # |N(0, s*sqrt(2))| whose median is s*sqrt(2)*Phi^-1(0.75) ~ 0.9539*s
        # (Monte Carlo verified: 0.9532 at 10^7 draws)
        s = 0.01
        spec = SynthSpec(
            beta=0.5,
            alpha={"a": 0.0, "b": 0.0, "c": 0.0},
            delta={f"d{i:03d}": 0.0 for i in range(400)},
            noise_sd=s,
        )
        report = irrelevance_threshold(generate_synthetic(spec, seed=11))
        assert report.median_delta_resample == pytest.approx(0.9539 * s, rel=0.15)

    def test_pair_count_reported(self):
        table = two_subset_table(
            [
                ("d1", "a", 0.1, 0.1, 0.1, 0.1),
                ("d1", "b", 0.2, 0.2, 0.2, 0.2),
                ("d2", "a", 0.1, 0.1, 0.1, 0.1),
            ]
        )
        report = irrelevance_threshold(table)
        assert report.n_pairs_used == 3
        assert report.n_cv_values == 6


def reference_threshold(table, k):
    """The threshold computed one record at a time from ``table.records``."""
    cells = {}
    for rec in table.records:
        cells.setdefault((rec.dataset, rec.algorithm), {})[rec.subset] = rec
    res, cv = [], []
    for dataset in table.datasets:
        means = {}
        for algorithm in table.algorithms:
            both = cells.get((dataset, algorithm), {})
            if len(both) == 2:
                means[algorithm] = (both[1].test_error + both[2].test_error) / 2.0
        if not means:
            continue
        cutoff = sorted(means.values())[min(k, len(means)) - 1]  # the k-th smallest, with ties
        for algorithm in sorted(a for a, mean in means.items() if mean <= cutoff):
            one, two = cells[dataset, algorithm][1], cells[dataset, algorithm][2]
            res.append(abs(two.test_error - one.test_error))
            cv.extend(abs(r.test_error - r.cv_error) for r in (one, two) if r.cv_error is not None)
    median_res = float(np.median(res)) if res else None
    median_cv = float(np.median(cv)) if cv else None
    medians = [m for m in (median_res, median_cv) if m is not None]
    return ThresholdReport(median_res, median_cv, min(medians) if medians else None, len(res), len(cv))


def random_table(rng):
    """Errors on a 1-3 decimal grid, so that cell means tie; about 10% of the
    records missing and 20% of the CV fields blank; some datasets hold only
    subset 1, so none of their cells is complete."""
    lines = [HEADER]
    decimals = int(rng.integers(1, 4))
    for d in range(int(rng.integers(1, 7))):
        only_first = rng.random() < 0.15
        for a in range(int(rng.integers(1, 7))):
            for subset in (1, 2):
                if rng.random() < 0.1 or only_first and subset == 2:
                    continue
                error = round(float(rng.uniform(0, 1)), decimals)
                cv = "" if rng.random() < 0.2 else repr(round(float(rng.uniform(0, 1)), decimals))
                lines.append(f"d{d},a{a},{subset},{error!r},{cv}\n")
    if len(lines) == 1:
        lines.append("d0,a0,1,0.5,\n")
    return ingest_error_table("".join(lines))


@pytest.mark.filterwarnings("ignore:skipped")
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_threshold_matches_record_reference(k):
    rng = np.random.default_rng(k)
    for _ in range(200):
        table = random_table(rng)
        assert irrelevance_threshold(table, k) == reference_threshold(table, k)
