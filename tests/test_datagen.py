"""Benchmark profile table, sampling, and uniform contamination."""

import numpy as np
import pytest

from wdmix import contaminate_uniform, generate_sim, validate_dataset
from wdmix.datagen import PROFILE_NAMES, profile_parameters
from wdmix.errors import DimensionMismatch, NonPositiveArgument


class TestProfileTable:
    @pytest.mark.parametrize("profile", PROFILE_NAMES)
    def test_profiles_are_well_formed(self, profile):
        weights, means, covs = profile_parameters(profile)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(weights > 0.0)
        assert len(means) == len(covs) == weights.shape[0]
        for mu, cov in zip(means, covs):
            assert mu.shape == (2,)
            assert cov.shape == (2, 2)
            assert np.allclose(cov, cov.T)
            np.linalg.cholesky(cov)

    def test_expected_component_counts(self):
        assert profile_parameters("easy")[0].shape[0] == 5
        assert profile_parameters("unbalanced")[0].shape[0] == 4
        assert profile_parameters("overlapped")[0].shape[0] == 4
        assert profile_parameters("mixed")[0].shape[0] == 6

    def test_unbalanced_is_actually_unbalanced(self):
        weights, _, _ = profile_parameters("unbalanced")
        assert weights.max() / weights.min() >= 3.0

    def test_unknown_profile_rejected(self):
        with pytest.raises(NonPositiveArgument):
            profile_parameters("nope")


class TestGenerateSim:
    def test_shapes_and_flags(self):
        ds = generate_sim("easy", 600, seed=0)
        assert ds.points.shape == (600, 2)
        assert ds.labels.shape == (600,)
        assert set(np.unique(ds.labels)) <= {0, 1, 2, 3, 4}
        assert not ds.outlier_flag.any()

    def test_counts_follow_weights(self):
        ds = generate_sim("unbalanced", 4000, seed=1)
        weights, _, _ = profile_parameters("unbalanced")
        fractions = np.bincount(ds.labels, minlength=4) / 4000.0
        assert np.max(np.abs(fractions - weights)) < 0.05

    def test_blocks_are_shuffled(self):
        ds = generate_sim("easy", 400, seed=2)
        # A grouped layout would have very few label changes along the rows.
        changes = int(np.sum(ds.labels[1:] != ds.labels[:-1]))
        assert changes > 100

    def test_seed_determinism(self):
        a = generate_sim("mixed", 300, seed=5)
        b = generate_sim("mixed", 300, seed=5)
        c = generate_sim("mixed", 300, seed=6)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.points, c.points)

    def test_cluster_means_near_profile_means(self):
        ds = generate_sim("easy", 5000, seed=3)
        _, means, _ = profile_parameters("easy")
        for j, mu in enumerate(means):
            got = ds.points[ds.labels == j].mean(axis=0)
            assert np.linalg.norm(got - mu) < 3.0

    def test_rejects_nonpositive_n(self):
        with pytest.raises(NonPositiveArgument):
            generate_sim("easy", 0)
        with pytest.raises(NonPositiveArgument, match="n_inliers must be an integer"):
            generate_sim("easy", 2.5)  # drew 2 points


class TestContaminateUniform:
    def test_appends_requested_fraction(self):
        ds = generate_sim("easy", 600, seed=0)
        out = contaminate_uniform(ds, 0.5, seed=1)
        assert out.n == 900
        assert int(out.outlier_flag.sum()) == 300
        assert np.all(out.labels[600:] == -1)
        assert np.all(out.labels[:600] == ds.labels)
        assert np.array_equal(out.points[:600], ds.points)

    def test_outliers_fill_the_expanded_box(self):
        ds = generate_sim("easy", 600, seed=0)
        out = contaminate_uniform(ds, 1.0, margin=0.1, seed=4)
        inl = ds.points
        lo, hi = inl.min(axis=0), inl.max(axis=0)
        pad = 0.1 * (hi - lo)
        extra = out.points[600:]
        assert np.all(extra >= lo - pad) and np.all(extra <= hi + pad)
        # Some samples actually land outside the raw bounding box.
        outside = np.any((extra < lo) | (extra > hi), axis=1)
        assert outside.sum() > 10

    def test_zero_fraction_is_identity_with_flags(self):
        ds = generate_sim("easy", 100, seed=0)
        out = contaminate_uniform(ds, 0.0, seed=1)
        assert out.n == 100
        assert np.array_equal(out.points, ds.points)
        assert not out.outlier_flag.any()

    def test_fraction_counts_inliers_only(self):
        ds = generate_sim("easy", 200, seed=0)
        once = contaminate_uniform(ds, 0.5, seed=1)
        twice = contaminate_uniform(once, 0.5, seed=2)
        # The second pass adds another 100 outliers, not 150.
        assert twice.n == 400
        assert int(twice.outlier_flag.sum()) == 200

    def test_seed_determinism(self):
        ds = generate_sim("easy", 150, seed=0)
        a = contaminate_uniform(ds, 0.3, seed=7)
        b = contaminate_uniform(ds, 0.3, seed=7)
        assert np.array_equal(a.points, b.points)

    def test_rejects_bad_arguments(self):
        ds = generate_sim("easy", 50, seed=0)
        with pytest.raises(NonPositiveArgument):
            contaminate_uniform(ds, -0.1)
        with pytest.raises(NonPositiveArgument):
            contaminate_uniform(ds, 0.3, margin=-1.0)

    def test_rejects_modality_tagged_data(self):
        ds = validate_dataset([[0.0, 0.0], [1.0, 1.0]], modality=["a", "v"])
        with pytest.raises(DimensionMismatch):
            contaminate_uniform(ds, 0.5)
