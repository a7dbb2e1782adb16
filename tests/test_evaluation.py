"""Clustering metrics: Davies-Bouldin, matched micro-F1, outlier scoring."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.stats import rankdata

from wdmix import (
    WeightState,
    davies_bouldin,
    micro_f1,
    outlier_score_report,
)
from wdmix.errors import (
    DimensionMismatch,
    EmptyCluster,
    LengthMismatch,
    MissingFlags,
    NonRectangular,
    SingleCluster,
    WdmixError,
)
from wdmix.evaluation import _average_ranks, _max_assignment


class TestDaviesBouldin:
    def test_two_cluster_analytic_case(self):
        # Centers 0 and 4 with mean member distance 1 on each side:
        # R = (1 + 1) / 4 = 0.5, the same for both clusters.
        points = np.array([[-1.0], [1.0], [3.0], [5.0]])
        labels = np.array([0, 0, 1, 1])
        centers = np.array([[0.0], [4.0]])
        assert davies_bouldin(points, labels, centers) == 0.5

    def test_scatter_uses_unsquared_distances(self):
        # Members at distance 1 and 3 give scatter 2 (not sqrt(5)).
        points = np.array([[-1.0], [3.0], [9.0], [11.0]])
        labels = np.array([0, 0, 1, 1])
        centers = np.array([[0.0], [10.0]])
        # scatter0 = (1+3)/2 = 2, scatter1 = 1, distance 10 -> R = 0.3
        assert davies_bouldin(points, labels, centers) == pytest.approx(0.3)

    def test_three_clusters_worst_neighbour(self):
        points = np.array(
            [[0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 2.0], [100.0, 0.0], [100.0, 2.0]]
        )
        labels = np.array([0, 0, 1, 1, 2, 2])
        centers = np.array([[0.0, 1.0], [10.0, 1.0], [100.0, 1.0]])
        # Every scatter is 1; nearest pairs dominate the per-cluster max.
        r0 = 2.0 / 10.0
        r2 = 2.0 / 90.0
        expected = (r0 + r0 + r2) / 3.0
        assert davies_bouldin(points, labels, centers) == pytest.approx(expected, rel=1e-12)

    def test_duplicate_points_leave_index_unchanged(self):
        points = np.array([[-1.0], [1.0], [3.0], [5.0]])
        labels = np.array([0, 0, 1, 1])
        centers = np.array([[0.0], [4.0]])
        doubled = davies_bouldin(
            np.vstack([points, points]), np.concatenate([labels, labels]), centers
        )
        assert doubled == davies_bouldin(points, labels, centers)

    def test_rigid_motion_invariance(self, rng):
        points = rng.normal(size=(60, 2)) * 5.0
        labels = rng.integers(0, 3, size=60)
        centers = np.vstack([points[labels == j].mean(axis=0) for j in range(3)])
        base = davies_bouldin(points, labels, centers)
        theta = 0.83
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        shift = np.array([42.0, -17.0])
        moved = davies_bouldin(points @ rot.T + shift, labels, centers @ rot.T + shift)
        assert moved == pytest.approx(base, rel=1e-9)

    def test_duplicate_centers_give_infinity(self):
        points = np.array([[0.0], [0.1], [5.0], [5.1]])
        labels = np.array([0, 0, 1, 1])
        centers = np.array([[2.0], [2.0]])
        assert davies_bouldin(points, labels, centers) == np.inf

    def test_error_cases(self):
        with pytest.raises(SingleCluster):
            davies_bouldin(np.zeros((3, 1)), np.zeros(3, int), np.zeros((1, 1)))
        with pytest.raises(EmptyCluster):
            davies_bouldin(
                np.zeros((3, 1)), np.zeros(3, int), np.array([[0.0], [1.0]])
            )
        with pytest.raises(LengthMismatch):
            davies_bouldin(np.zeros((3, 1)), np.zeros(2, int), np.zeros((2, 1)))
        with pytest.raises(LengthMismatch):  # raised a raw IndexError
            davies_bouldin(np.zeros((3, 1)), np.zeros((3, 1), int), np.array([[0.0], [1.0]]))
        with pytest.raises(NonRectangular):  # read as labels 0, 0, 1
            davies_bouldin(np.arange(3.0)[:, None], [0.5, 0.0, 1.7], np.array([[0.0], [2.0]]))
        with pytest.raises(EmptyCluster):  # no points: a raw ValueError from an empty reduction
            davies_bouldin(np.zeros((0, 1)), np.zeros(0, int), np.array([[0.0], [1.0]]))

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 3), (2,)])
    def test_centers_not_shaped_k_by_d_rejected(self, shape):
        # (2, 2, 2) centres returned nan, and (2, 3) a broadcasting ValueError.
        points = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [6.0, 5.0]])
        with pytest.raises(DimensionMismatch):
            davies_bouldin(points, [0, 0, 1, 1], np.arange(np.prod(shape), dtype=float).reshape(shape))

    @pytest.mark.parametrize("stray", [7, 2, -1])
    def test_labels_outside_center_range_rejected(self, stray):
        # Such a point used to be dropped silently, leaving the index at 0.1.
        points = np.array([[-1.0], [1.0], [19.0], [21.0], [50.0]])
        centers = np.array([[0.0], [20.0]])
        assert davies_bouldin(points[:4], [0, 0, 1, 1], centers) == pytest.approx(0.1)
        with pytest.raises(DimensionMismatch):
            davies_bouldin(points, [0, 0, 1, 1, stray], centers)


def _widest_spread(shape) -> int:
    """The largest max - min that ``_max_assignment`` takes on a matrix of ``shape``."""
    return (2**63 - 1) // (2 * min(shape) + 2)


def _matching_total(profit, rows, cols) -> int:
    """Total profit of a matching of min(r, c) pairs, each row and column used once."""
    rows, cols = np.asarray(rows).tolist(), np.asarray(cols).tolist()
    assert len(rows) == len(cols) == min(profit.shape)
    assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
    return sum(int(profit[i, j]) for i, j in zip(rows, cols))


def _brute_force_total(profit) -> int:
    """Largest total over every matching of the shorter side, in Python ints."""
    if profit.shape[0] > profit.shape[1]:
        profit = profit.T
    r, c = profit.shape
    return max(sum(int(profit[i, j]) for i, j in enumerate(cols)) for cols in permutations(range(c), r))


_SHAPES = st.tuples(st.integers(1, 8), st.integers(1, 8))


class TestMaxAssignment:
    @settings(max_examples=300, deadline=None)
    @given(shape=_SHAPES, top=st.sampled_from([0, 1, 3, 10**6, 10**12]), data=st.data())
    @example(shape=(1, 6), top=3, data=None)
    @example(shape=(6, 1), top=3, data=None)
    def test_total_is_the_optimum(self, shape, top, data):
        # Small tops make tied optima common; top 0 is a matrix of ties.
        size = shape[0] * shape[1]
        entries = (
            data.draw(st.lists(st.integers(-top, top), min_size=size, max_size=size))
            if data else list(range(-top, size - top))
        )
        profit = np.array(entries, dtype=np.int64).reshape(shape)
        got = _matching_total(profit, *_max_assignment(profit))
        assert got == _matching_total(profit, *linear_sum_assignment(profit, maximize=True))
        if max(shape) <= 5:
            assert got == _brute_force_total(profit)
        assert _matching_total(profit.T, *_max_assignment(profit.T)) == got

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(st.integers(1, 5), st.integers(1, 5)), data=st.data())
    def test_exact_at_the_widest_spread(self, shape, data):
        # Entries far beyond float64's 2**53, where SciPy's float matching is
        # no oracle: the brute force in Python ints is.
        spread = _widest_spread(shape)
        low = data.draw(st.integers(-(2**63), 2**63 - 1 - spread))
        size = shape[0] * shape[1]
        offsets = data.draw(
            st.lists(st.sampled_from([0, 1, spread // 2, spread - 1, spread]), min_size=size, max_size=size)
        )
        offsets[0], offsets[-1] = 0, spread
        profit = (np.array(offsets, dtype=np.int64) + np.int64(low)).reshape(shape)
        assert _matching_total(profit, *_max_assignment(profit)) == _brute_force_total(profit)

    @pytest.mark.parametrize("shape", [(1, 2), (1, 4), (4, 1), (3, 5), (5, 3)])
    def test_spread_past_the_bound_raises(self, shape):
        profit = np.zeros(shape, dtype=np.int64)
        profit[-1, -1] = _widest_spread(shape)
        assert _matching_total(profit, *_max_assignment(profit)) == profit[-1, -1]
        profit[-1, -1] += 1
        with pytest.raises(WdmixError, match="too wide"):
            _max_assignment(profit)
        with pytest.raises(WdmixError, match="too wide"):
            _max_assignment(-profit)


class TestMicroF1:
    def test_perfect_clustering(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        assert micro_f1(labels, labels) == 1.0

    def test_permutation_perfect(self):
        true = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([7, 7, 3, 3, 5, 5])
        assert micro_f1(pred, true) == 1.0

    def test_equals_accuracy_with_full_matching(self):
        pred = np.array([0, 0, 1, 1])
        true = np.array([0, 1, 1, 1])
        assert micro_f1(pred, true) == pytest.approx(0.75)

    def test_single_cluster_balanced_classes(self):
        pred = np.zeros(10, dtype=int)
        true = np.repeat([0, 1], 5)
        assert micro_f1(pred, true) == pytest.approx(0.5)

    def test_random_labels_approach_one_over_c(self):
        gen = np.random.default_rng(12)
        true = np.repeat(np.arange(4), 2500)
        pred = gen.integers(0, 4, size=true.size)
        assert micro_f1(pred, true) == pytest.approx(0.25, abs=0.02)

    def test_extra_clusters_cost_precision(self):
        # Splitting one class into two clusters leaves one cluster unmatched.
        true = np.repeat([0, 1], 4)
        pred = np.array([0, 0, 3, 3, 1, 1, 1, 1])
        # Matching: cluster 1 -> class 1 (4 points), then 0 or 3 -> class 0 (2).
        # tp = 6, fp = 0, fn = 2 -> F1 = 12 / 14.
        assert micro_f1(pred, true) == pytest.approx(12.0 / 14.0)

    def test_tied_matchings_score_the_same_under_relabelling(self):
        # Clusters 0 and 1 overlap class 0 equally (5 points); matching cluster
        # 0 would count its 2 class-1 points as false positives.  Before ties
        # went by fewest false positives, swapping ids 0 and 1 scored 0.64.
        pred = np.array([0] * 7 + [1] * 5 + [2] * 3)
        true = np.array([0] * 5 + [1] * 2 + [0] * 5 + [1] * 3)
        swapped = np.array([1, 0, 2])[pred]
        assert micro_f1(pred, true) == micro_f1(swapped, true) == pytest.approx(16.0 / 23.0)

    @settings(max_examples=60, deadline=None)
    @given(
        pred=st.lists(st.integers(0, 4), min_size=1, max_size=30),
        data=st.data(),
    )
    def test_invariant_under_relabelling(self, pred, data):
        true = data.draw(st.lists(st.integers(0, 3), min_size=len(pred), max_size=len(pred)))
        sigma = data.draw(st.permutations(range(5)))
        tau = data.draw(st.permutations(range(4)))
        pred, true = np.array(pred), np.array(true)
        base = micro_f1(pred, true)
        assert micro_f1(np.array(sigma)[pred], true) == base
        assert micro_f1(pred, np.array(tau)[true]) == base

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            micro_f1(np.zeros(3, int), np.zeros(2, int))
        with pytest.raises(LengthMismatch):
            micro_f1(np.array([]), np.array([]))


def _rank_cases():
    gen = np.random.default_rng(3)
    return {
        "one": np.array([0.7]),
        "all_equal": np.full(50, 2.5),
        "rounded_ties": np.round(gen.normal(size=500), 1),
        "few_values": gen.integers(0, 3, size=200).astype(float),
        "large_ties": np.round(gen.gamma(2.0, size=12_000), 2),
        "large_distinct": gen.normal(size=12_000),
    }


@pytest.mark.parametrize("case", sorted(_rank_cases()))
def test_average_ranks_match_rankdata_bit_for_bit(case):
    values = _rank_cases()[case]
    got, want = _average_ranks(values), rankdata(values)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _marginal_state(wbar):
    wbar = np.asarray(wbar, dtype=np.float64)
    n = wbar.shape[0]
    state = WeightState.random_prior(np.ones(n), np.ones(n))
    state = state.with_posterior(np.ones(n), np.ones((n, 1)))
    return state.with_marginal(wbar)


class TestOutlierScoreReport:
    def test_separated_weights_give_auc_one(self):
        wbar = np.array([5.0, 6.0, 7.0, 0.5, 0.2])
        flags = np.array([False, False, False, True, True])
        report = outlier_score_report(_marginal_state(wbar), flags)
        assert report.auc == 1.0
        assert report.inlier_mean_weight == pytest.approx(6.0)
        assert report.outlier_mean_weight == pytest.approx(0.35)

    def test_hand_computed_auc_with_overlap(self):
        # Scores -wbar: outliers rank above 2 of 3 inliers each -> AUC = 4/6.
        wbar = np.array([1.0, 3.0, 0.4, 0.5, 2.0])
        flags = np.array([False, False, True, True, False])
        report = outlier_score_report(_marginal_state(wbar), flags)
        assert report.auc == pytest.approx(1.0)
        wbar = np.array([1.0, 3.0, 2.5, 0.5, 2.0])
        report = outlier_score_report(_marginal_state(wbar), flags)
        # On the -wbar score the outlier at 2.5 only outranks the inlier at
        # 3.0; the outlier at 0.5 outranks all three inliers.
        assert report.auc == pytest.approx((1.0 + 3.0) / 6.0)

    def test_ties_count_half(self):
        wbar = np.array([1.0, 1.0])
        flags = np.array([False, True])
        report = outlier_score_report(_marginal_state(wbar), flags)
        assert report.auc == pytest.approx(0.5)

    def test_auc_matches_rankdata_formula_with_tied_means(self):
        gen = np.random.default_rng(9)
        wbar = np.round(gen.gamma(2.0, size=3_000), 1) + 0.1
        flags = gen.random(3_000) < 0.3
        n_out, n_in = int(flags.sum()), int((~flags).sum())
        ranks = rankdata(-wbar)
        want = float((ranks[flags].sum() - n_out * (n_out + 1) / 2.0) / (n_out * n_in))
        assert outlier_score_report(_marginal_state(wbar), flags).auc == want

    def test_all_inliers_leaves_outlier_side_absent(self):
        wbar = np.array([1.0, 2.0])
        flags = np.array([False, False])
        report = outlier_score_report(_marginal_state(wbar), flags)
        assert report.outlier_mean_weight is None
        assert report.auc is None
        assert report.inlier_mean_weight == pytest.approx(1.5)

    def test_requires_flags_and_marginals(self):
        with pytest.raises(MissingFlags):
            outlier_score_report(_marginal_state([1.0]), None)
        bare = WeightState.random_prior(np.ones(2), np.ones(2))
        with pytest.raises(WdmixError):
            outlier_score_report(bare, np.array([True, False]))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            outlier_score_report(_marginal_state([1.0, 2.0]), np.array([True]))
