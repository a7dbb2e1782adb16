"""k-means seeding, moment-matched models, and kernel weight construction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import cKDTree

from wdmix import (
    CovarianceShape,
    gamma_priors_from_weights,
    kmeans,
    knn_kernel_weights,
    model_from_labels,
    pipeline_gamma_priors,
    validate_dataset,
)
from wdmix import initialization
from wdmix.initialization import (
    PRIOR_WEIGHT_FLOOR,
    _augmented,
    _lloyd,
    _plus_plus_seed,
    _sq_distances,
    _sq_distances_to,
    kernel_sums,
)
from wdmix.errors import (
    EmptyCluster,
    KTooLarge,
    NaNInput,
    NonPositiveArgument,
    NonPositiveWeight,
    QTooLarge,
)

from reference_kmeans import reference_distances, reference_kmeans, reference_lloyd, reference_seed


class TestKmeans:
    def test_partitions_blobs(self, blobs_2d):
        labels, centers = kmeans(blobs_2d, 3, restarts=5, seed=0)
        assert centers.shape == (3, 2)
        # Every true blob maps to exactly one k-means cluster.
        found = set()
        for j in range(3):
            cluster_labels = labels[blobs_2d.labels == j]
            values, counts = np.unique(cluster_labels, return_counts=True)
            assert counts.max() / counts.sum() > 0.98
            found.add(int(values[np.argmax(counts)]))
        assert found == {0, 1, 2}

    def test_deterministic_for_seed(self, blobs_2d):
        a = kmeans(blobs_2d, 3, restarts=5, seed=9)
        b = kmeans(blobs_2d, 3, restarts=5, seed=9)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_single_cluster(self, blobs_2d):
        labels, centers = kmeans(blobs_2d, 1, seed=0)
        assert np.all(labels == 0)
        assert np.allclose(centers[0], blobs_2d.points.mean(axis=0))

    def test_k_equals_n(self):
        data = validate_dataset([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        labels, centers = kmeans(data, 3, seed=0)
        assert sorted(labels.tolist()) == [0, 1, 2]

    def test_rejects_bad_k(self, blobs_2d):
        with pytest.raises(KTooLarge):
            kmeans(blobs_2d, 0, seed=0)
        with pytest.raises(KTooLarge):
            kmeans(blobs_2d, blobs_2d.n + 1, seed=0)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_rejects_fewer_than_one_restart(self, blobs_2d, restarts):
        with pytest.raises(NonPositiveArgument, match="restarts"):
            kmeans(blobs_2d, 3, restarts=restarts, seed=0)

    def test_accepts_raw_arrays(self):
        points = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
        labels, _ = kmeans(points, 2, seed=0)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_recovers_separated_blobs_above_the_sample_size(self):
        gen = np.random.default_rng(12)
        truth = gen.integers(6, size=12_000)
        points = 10.0 * np.eye(8)[:6][truth] + gen.normal(size=(12_000, 8))
        labels, _ = kmeans(points, 6, seed=3)
        # One-to-one up to relabelling: every (truth, label) pair that occurs
        # is one of exactly six.
        pairs = set(zip(truth.tolist(), labels.tolist()))
        assert len(pairs) == 6
        assert {t for t, _ in pairs} == {l for _, l in pairs} == set(range(6))

    @pytest.mark.parametrize("n, sampled", [(8_192, False), (8_193, True)])
    def test_restarts_run_on_a_sample_only_above_8192_points(self, monkeypatch, n, sampled):
        rows = []

        def spy(aug, centers):
            rows.append(aug.shape[0])
            return _lloyd(aug, centers)

        monkeypatch.setattr(initialization, "_lloyd", spy)
        points = _blobs(n, 2, 3, seed=4)
        labels, centers = kmeans(points, 3, restarts=2, seed=1)
        assert rows == ([8_192, 8_192, n] if sampled else [n, n])
        want_labels, want_centers, _ = reference_kmeans(points, 3, restarts=2, seed=1)
        _assert_same_bits((labels, centers), (want_labels, want_centers))

    def test_empty_cluster_raises(self):
        # Far from the origin, rounding in the distance expansion leaves the
        # best labelling one cluster short; it must not pass as k - 1 clusters.
        points = np.random.default_rng(0).normal(size=(200, 2)) + 1e8
        with pytest.raises(EmptyCluster, match="k-means left cluster 7 of 8 empty"):
            kmeans(points, 8, seed=0)


def _blobs(n: int, d: int, k: int, seed: int) -> np.ndarray:
    """k Gaussian blobs plus 20% uniform points: Lloyd needs several iterations."""
    gen = np.random.default_rng(seed)
    centers = gen.normal(size=(k, d)) * 8.0
    points = centers[gen.integers(k, size=n)] + gen.normal(size=(n, d))
    outliers = gen.random(n) < 0.2
    points[outliers] = gen.uniform(-20.0, 20.0, size=(int(outliers.sum()), d))
    return points


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert np.asarray(g).dtype == np.asarray(w).dtype
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def _assert_distances_match_oracle(d: int):
    points = _blobs(5_000, d, 8, seed=1)  # n * k = 40,000, above NumPy's elision size
    centers = points[:8] + 0.5
    want = reference_distances(points, np.sum(points**2, axis=1), centers)
    assert _sq_distances(_augmented(points), centers).tobytes() == want.tobytes()


class TestMatchesMaskedMeanLloyd:
    """Grouped-sum, one-product Lloyd against the masked-mean oracle in reference_kmeans.py."""

    @pytest.mark.parametrize(
        "d, n, k",
        # The third at n * k >= 32,768; the last above the 8,192-point sample size.
        [(2, 900, 15), (8, 600, 6), (8, 5_000, 8), (16, 2_000, 6), (8, 9_000, 6)],
        ids=["d2", "d8", "d8-elision-size", "d16", "d8-sampled"],
    )
    def test_kmeans_bit_identical(self, d, n, k):
        points = _blobs(n, d, k, seed=d)
        labels, centers = kmeans(points, k, restarts=3, seed=5)
        want_labels, want_centers, _ = reference_kmeans(points, k, restarts=3, seed=5)
        _assert_same_bits((labels, centers), (want_labels, want_centers))

    def test_kmeans_one_dimension_matches_to_rounding(self):
        # See test_one_dimension_matches_to_rounding: only the centers' last bits may move.
        points = _blobs(2_000, 1, 5, seed=1)
        labels, centers = kmeans(points, 5, restarts=3, seed=5)
        want_labels, want_centers, _ = reference_kmeans(points, 5, restarts=3, seed=5)
        assert np.array_equal(labels, want_labels)
        np.testing.assert_allclose(centers, want_centers, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("d", [1, 2, 8, 16])
    def test_seeds_bit_identical(self, d):
        points = _blobs(700, d, 9, seed=d)
        got = _plus_plus_seed(points, 9, np.random.default_rng(d))
        assert got.tobytes() == reference_seed(points, 9, np.random.default_rng(d)).tobytes()
        # A last-bit change in the sampling weights rarely moves a draw, so
        # check the sums that the seeding samples from directly.
        want = np.sum((points - got[1]) ** 2, axis=1)
        assert _sq_distances_to(points, got[1]).tobytes() == want.tobytes()

    def test_distances_bit_identical_at_elision_size(self):
        _assert_distances_match_oracle(8)

    @pytest.mark.parametrize("d", [1, 2, 16])
    def test_distances_bit_identical_in_other_dimensions(self, d):
        _assert_distances_match_oracle(d)

    @pytest.mark.parametrize("seed", range(12))
    def test_lloyd_bit_identical(self, seed):
        gen = np.random.default_rng(seed)
        d, k = int(gen.integers(2, 9)), int(gen.integers(2, 10))
        points = _blobs(int(gen.integers(50, 400)), d, k, seed)
        start = _plus_plus_seed(points, k, gen)
        _assert_same_bits(_lloyd(_augmented(points), start), reference_lloyd(points, start))

    def test_empty_center_is_reseeded_as_in_the_oracle(self):
        points = _blobs(300, 3, 4, seed=7)
        start = points[:5].copy()
        start[2] = 1e4  # no point is nearest to this center on the first pass
        first_labels = np.argmin(((points[:, None, :] - start) ** 2).sum(axis=2), axis=1)
        assert not np.any(first_labels == 2)
        got = _lloyd(_augmented(points), start)
        _assert_same_bits(got, reference_lloyd(points, start))
        assert np.any(got[0] == 2)

    def test_one_dimension_matches_to_rounding(self):
        # A single column is summed pairwise by the masked mean and in point
        # order by the grouped sums, so only the last bits may differ.
        points = _blobs(2_000, 1, 5, seed=3)
        start = _plus_plus_seed(points, 5, np.random.default_rng(3))
        labels, centers, inertia = _lloyd(_augmented(points), start)
        want_labels, want_centers, want_inertia = reference_lloyd(points, start)
        assert np.array_equal(labels, want_labels)
        np.testing.assert_allclose(centers, want_centers, rtol=1e-12, atol=0.0)
        assert inertia == pytest.approx(want_inertia, rel=1e-12)


@pytest.mark.parametrize(
    "build",
    [
        lambda points: kmeans(points, 2, seed=0),
        lambda points: model_from_labels(points, np.array([0, 0, 1, 1])),
        lambda points: knn_kernel_weights(points, q=2),
    ],
    ids=["kmeans", "model_from_labels", "knn_kernel_weights"],
)
def test_non_finite_points_rejected(build):
    points = np.array([[0.0, 0.0], [np.nan, 0.0], [10.0, 10.0], [10.1, 10.0]])
    with pytest.raises(NaNInput):
        build(points)


class TestModelFromLabels:
    def test_moment_matching(self):
        points = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 10.0], [10.0, 14.0], [13.0, 12.0]])
        labels = np.array([0, 0, 1, 1, 1])
        model = model_from_labels(points, labels)
        assert np.allclose(model.proportions, [0.4, 0.6])
        assert np.allclose(model.components[0].mean, [1.0, 0.0])
        assert np.allclose(model.components[1].mean, [11.0, 12.0])
        members = points[2:] - [11.0, 12.0]
        expected_cov = members.T @ members / 3.0
        got = model.components[1].full_covariance()
        assert np.allclose(got, expected_cov, atol=1e-8)
        # The ridge keeps even the two-point cluster invertible.
        np.linalg.cholesky(model.components[0].full_covariance())

    def test_diagonal_shape(self):
        points = np.array([[0.0, 0.0], [2.0, 4.0]])
        model = model_from_labels(points, [0, 0], CovarianceShape.DIAGONAL)
        comp = model.components[0]
        assert comp.is_diagonal
        assert comp.covariance[0] == pytest.approx(1.0, rel=1e-9)
        assert comp.covariance[1] == pytest.approx(4.0, rel=1e-9)

    def test_degenerate_cluster_still_positive_definite(self):
        # Two coincident points have zero scatter; the fallback scale kicks in.
        points = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0], [6.0, 4.0]])
        model = model_from_labels(points, [0, 0, 1, 1])
        np.linalg.cholesky(model.components[0].full_covariance())

    def test_empty_cluster_rejected(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(EmptyCluster):
            model_from_labels(points, [0, 2])  # label 1 missing


def _oracle_weights(points: np.ndarray, q: int, bandwidth: float) -> np.ndarray:
    """Kernel weights from explicit (x_i - x_j)^2 sums and a full sort of each row."""
    weights = np.empty(points.shape[0])
    for i, x in enumerate(points):
        d2 = np.sort(np.sum((np.delete(points, i, axis=0) - x) ** 2, axis=1))[:q]
        weights[i] = max(np.sum(np.exp(-d2 / bandwidth)), 1e-12)
    return weights


class TestKnnKernelWeights:
    def test_two_points_hand_value(self):
        # Each point's only neighbour sits 10 away: w = exp(-100/100).
        data = validate_dataset([[0.0, 0.0], [10.0, 0.0]])
        w = knn_kernel_weights(data, q=1, bandwidth=100.0)
        assert w[0] == pytest.approx(0.36787944117144233, abs=1e-16)
        assert w[1] == pytest.approx(0.36787944117144233, abs=1e-16)

    def test_coincident_points_score_q(self):
        data = validate_dataset([[3.0, 3.0]] * 5)
        w = knn_kernel_weights(data, q=3, bandwidth=100.0)
        assert np.allclose(w, 3.0)

    def test_dense_region_outscores_isolated_point(self):
        gen = np.random.default_rng(2)
        cluster = gen.normal(0.0, 5.0, size=(60, 2))
        lone = np.array([[500.0, 500.0]])
        data = validate_dataset(np.vstack([cluster, lone]))
        w = knn_kernel_weights(data, q=10, bandwidth=100.0)
        assert w[-1] < 1e-6
        assert w[:-1].min() > 0.05

    def test_isolated_point_clamped_to_floor(self):
        data = validate_dataset([[0.0, 0.0], [1e6, 0.0]])
        w = knn_kernel_weights(data, q=1, bandwidth=100.0)
        assert w[0] == pytest.approx(1e-12)  # exp(-1e10) underflows to the floor

    @pytest.mark.parametrize("d", [2, 8])
    def test_matches_direct_difference_oracle(self, d):
        gen = np.random.default_rng(4)
        points = gen.normal(size=(300, d)) * 40.0
        points[250:260] = points[0]  # a stack of eleven coincident points
        points[260:262] = points[1]
        got = knn_kernel_weights(points, q=7, bandwidth=100.0)
        np.testing.assert_allclose(got, _oracle_weights(points, 7, 100.0), rtol=1e-12, atol=0.0)

    def test_every_core_matches_one_thread(self):
        gen = np.random.default_rng(6)
        points = gen.normal(size=(2_400, 8)) * 3.0
        points[2_000:2_100] = points[0]  # a stack of 101 coincident points
        dists, _ = cKDTree(points).query(points, k=21, workers=1)
        want = kernel_sums(dists[:, 1:] ** 2, 100.0)
        assert knn_kernel_weights(points, q=20, bandwidth=100.0).tobytes() == want.tobytes()

    def test_ties_at_the_last_neighbour_match_a_serial_default_tree(self):
        # Rounded coordinates put many points at equal distances, so the q-th
        # neighbour is often one of several tied candidates.
        gen = np.random.default_rng(8)
        points = np.round(gen.normal(size=(3_000, 2)) * 4.0)
        dists, _ = cKDTree(points).query(points, k=16, workers=1)
        assert np.mean(dists[:, 15] == dists[:, 14]) > 0.5
        want = kernel_sums(dists[:, 1:] ** 2, 10.0)
        assert knn_kernel_weights(points, q=15, bandwidth=10.0).tobytes() == want.tobytes()

    def test_parameter_validation(self):
        data = validate_dataset([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(QTooLarge):
            knn_kernel_weights(data, q=2)  # q must stay below n
        with pytest.raises(QTooLarge):
            knn_kernel_weights(data, q=0)
        with pytest.raises(NonPositiveWeight):
            knn_kernel_weights(data, q=1, bandwidth=0.0)
        with pytest.raises(NonPositiveWeight):
            knn_kernel_weights(data, q=1, bandwidth=float("nan"))


def _whole_set_weights(points, q, bandwidth):
    """Kernel weights from one leaf-order query of every point, scattered back to point order."""
    tree = cKDTree(points, leafsize=32, balanced_tree=False)
    found, _ = tree.query(tree.data[tree.indices], k=q + 1, workers=-1)
    dists = np.empty_like(found)
    dists[tree.indices] = found
    return kernel_sums(dists[:, 1:] ** 2, bandwidth)


_BLOCK = initialization._KNN_BLOCK


class TestBlockedQuery:
    """The tree is queried in leaf-order blocks; the weights equal one whole-set query's."""

    @pytest.mark.parametrize(
        "n, d", [(_BLOCK, 2), (_BLOCK + 1, 2), (3 * _BLOCK + 5, 2), (_BLOCK + 1, 3), (2 * _BLOCK + 7, 5)]
    )
    def test_bit_identical_to_one_whole_set_query(self, n, d):
        points = np.random.default_rng(n + d).normal(size=(n, d)) * 4.0
        got = knn_kernel_weights(points, q=20, bandwidth=10.0)
        assert got.tobytes() == _whole_set_weights(points, 20, 10.0).tobytes()

    def test_exact_duplicates_across_blocks(self):
        # Rounded coordinates repeat every point many times over, so most
        # distances are tied and stacks of duplicates straddle block edges.
        points = np.round(np.random.default_rng(9).normal(size=(2 * _BLOCK + 300, 2)) * 3.0)
        points[::7] = points[0]
        dists, _ = cKDTree(points).query(points, k=21, workers=1)
        assert np.mean(dists[:, 20] == dists[:, 19]) > 0.5
        got = knn_kernel_weights(points, q=20, bandwidth=10.0)
        assert got.tobytes() == _whole_set_weights(points, 20, 10.0).tobytes()

    def test_traced_peak_stays_bounded(self):
        # One whole-set query of 40,000 points peaks at about 40 MB of
        # (n, q + 1) arrays and copies; 8,192-row blocks need about 8 MB.
        points = np.random.default_rng(10).normal(size=(40_000, 2))
        tracemalloc.start()
        try:
            knn_kernel_weights(points, q=20, bandwidth=100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


def _rotation(d: int, seed: int) -> np.ndarray:
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


@settings(max_examples=20, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    n=st.integers(30, 300),
    seed=st.integers(0, 2**16),
    shift=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
)
@example(d=2, n=300, seed=0, shift=[1e6, 1e6, 1e6])
def test_weights_invariant_under_rigid_motion(d, n, seed, shift):
    points = np.random.default_rng(seed).normal(size=(n, d)) * 20.0
    moved = points @ _rotation(d, seed + 1).T + np.array(shift[:d])
    np.testing.assert_allclose(
        knn_kernel_weights(moved, q=10, bandwidth=100.0),
        knn_kernel_weights(points, q=10, bandwidth=100.0),
        rtol=1e-9,
        atol=0.0,
    )


class TestGammaPriors:
    def test_mean_and_unit_variance_parameterisation(self):
        alpha, beta = gamma_priors_from_weights([2.0, 1.0, 0.5])
        assert alpha.tolist() == [4.0, 1.0, 0.25]
        assert beta.tolist() == [2.0, 1.0, 0.5]
        # Gamma(w^2, w) has mean w and variance 1.
        assert np.allclose(alpha / beta, [2.0, 1.0, 0.5])
        assert np.allclose(alpha / beta**2, 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveWeight):
            gamma_priors_from_weights([1.0, 0.0])
        with pytest.raises(NonPositiveWeight):
            gamma_priors_from_weights([np.nan])

    def test_pipeline_floor(self):
        alpha, beta = pipeline_gamma_priors([0.01, 2.0])
        assert beta[0] == pytest.approx(PRIOR_WEIGHT_FLOOR)
        assert alpha[0] == pytest.approx(PRIOR_WEIGHT_FLOOR**2)
        # Values above the floor pass through unchanged.
        assert alpha[1] == pytest.approx(4.0)
        assert beta[1] == pytest.approx(2.0)

    def test_floor_caps_posterior_mean_inflation(self):
        # A near-zero raw weight would otherwise produce a posterior mean
        # near 1/w for points close to a component mean (a = w^2 + d/2,
        # b = w + 0); the floor bounds it.
        alpha, beta = pipeline_gamma_priors([1e-6])
        d = 2
        cap = (alpha[0] + d / 2.0) / beta[0]
        assert cap <= (PRIOR_WEIGHT_FLOOR**2 + 1.0) / PRIOR_WEIGHT_FLOOR + 1e-12
