"""Fixed-weight EM: hand-checked updates, ascent, and the unit-weight limit."""

import numpy as np
import pytest

from wdmix import (
    CovarianceShape,
    FitConfig,
    Responsibilities,
    WeightState,
    em_fixed,
    em_weighted,
    model_from_parameters,
    validate_dataset,
)
from wdmix.errors import DegenerateRow, DimensionMismatch, LengthMismatch, NonPositiveWeight

from reference_gmm import ReferenceGMM


def _single_component_eta(n):
    return Responsibilities(np.ones((n, 1)))


class TestMStepHandValues:
    """One component, two 1-D points x = 0 and 2, checked by hand.

    With weights (3, 1): mean = (3*0 + 1*2) / 4 = 0.5 and the covariance
    divides the weighted scatter by the plain responsibility sum:
    (3*0.25 + 1*2.25) / 2 = 1.5.  With unit weights: mean 1, variance 1.
    """

    def test_weighted_update(self):
        data = validate_dataset([[0.0], [2.0]])
        model = em_fixed.m_step(data, _single_component_eta(2), [3.0, 1.0])
        assert model.components[0].mean[0] == pytest.approx(0.5, abs=1e-15)
        assert model.components[0].covariance[0, 0] == pytest.approx(1.5, rel=1e-9)
        assert model.proportions[0] == 1.0

    def test_unit_weight_update(self):
        data = validate_dataset([[0.0], [2.0]])
        model = em_fixed.m_step(data, _single_component_eta(2), 1.0)
        assert model.components[0].mean[0] == pytest.approx(1.0, abs=1e-15)
        assert model.components[0].covariance[0, 0] == pytest.approx(1.0, rel=1e-9)

    def test_diagonal_shape(self):
        data = validate_dataset([[0.0, 1.0], [2.0, 3.0]])
        model = em_fixed.m_step(
            data, _single_component_eta(2), [3.0, 1.0], CovarianceShape.DIAGONAL
        )
        comp = model.components[0]
        assert comp.is_diagonal
        assert comp.mean[0] == pytest.approx(0.5)
        assert comp.covariance[0] == pytest.approx(1.5, rel=1e-9)
        assert comp.covariance[1] == pytest.approx(1.5, rel=1e-9)

    def test_two_component_proportions(self):
        data = validate_dataset([[0.0], [2.0], [10.0], [12.0]])
        eta = Responsibilities(
            np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        )
        model = em_fixed.m_step(data, eta, 1.0)
        assert np.allclose(model.proportions, [0.5, 0.5])
        assert model.components[0].mean[0] == pytest.approx(1.0)
        assert model.components[1].mean[0] == pytest.approx(11.0)


class TestEStep:
    def test_symmetric_point_splits_evenly(self):
        model = model_from_parameters(
            [np.array([-1.0]), np.array([1.0])], [np.eye(1), np.eye(1)], [0.5, 0.5]
        )
        eta = em_fixed.e_step(validate_dataset([[0.0]]), model, 1.0)
        assert np.allclose(eta.matrix, [[0.5, 0.5]])

    def test_proportions_break_ties(self):
        model = model_from_parameters(
            [np.array([-1.0]), np.array([1.0])], [np.eye(1), np.eye(1)], [0.8, 0.2]
        )
        eta = em_fixed.e_step(validate_dataset([[0.0]]), model, 1.0)
        assert np.allclose(eta.matrix, [[0.8, 0.2]], atol=1e-12)

    def test_larger_weight_sharpens_assignment(self):
        model = model_from_parameters(
            [np.array([-1.0]), np.array([1.0])], [np.eye(1), np.eye(1)], [0.5, 0.5]
        )
        data = validate_dataset([[0.4]])
        soft = em_fixed.e_step(data, model, 1.0).matrix[0, 1]
        sharp = em_fixed.e_step(data, model, 10.0).matrix[0, 1]
        assert 0.5 < soft < sharp < 1.0

    def test_weight_state_and_vector_agree(self, blobs_2d, blobs_model):
        w = np.linspace(0.5, 2.0, blobs_2d.n)
        via_array = em_fixed.e_step(blobs_2d, blobs_model, w)
        via_state = em_fixed.e_step(blobs_2d, blobs_model, WeightState.fixed(w))
        assert np.array_equal(via_array.matrix, via_state.matrix)

    def test_random_state_rejected(self, blobs_2d, blobs_model):
        state = WeightState.random_prior(np.ones(blobs_2d.n), np.ones(blobs_2d.n))
        with pytest.raises(NonPositiveWeight):
            em_fixed.e_step(blobs_2d, blobs_model, state)

    def test_length_mismatch(self, blobs_2d, blobs_model):
        with pytest.raises(LengthMismatch):
            em_fixed.e_step(blobs_2d, blobs_model, np.ones(3))


class TestObjectives:
    def test_loglik_manual(self):
        model = model_from_parameters(
            [np.array([0.0]), np.array([4.0])], [np.eye(1), np.eye(1)], [0.3, 0.7]
        )
        x = 1.0
        dens = 0.3 * np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi) + 0.7 * np.exp(
            -0.5 * (x - 4.0) ** 2
        ) / np.sqrt(2 * np.pi)
        got = em_fixed.loglik(validate_dataset([[x]]), model, 1.0)
        assert got == pytest.approx(np.log(dens), rel=1e-12)

    def test_loglik_rejects_point_of_zero_density(self):
        # The squared distance overflows to inf, so every component density is 0.
        model = model_from_parameters([np.zeros(1), np.ones(1)], [np.eye(1), np.eye(1)], [0.5, 0.5])
        far = validate_dataset([[0.0], [1e200]])
        priors = (np.full(2, 2.0), np.ones(2))
        with np.errstate(over="ignore"):
            with pytest.raises(DegenerateRow):
                em_fixed.loglik(far, model, 1.0)
            with pytest.raises(DegenerateRow):
                em_weighted.marginal_loglik(far, model, priors)

    def test_model_of_other_dimension_rejected(self, blobs_2d):
        model = model_from_parameters([np.zeros(3)], [np.eye(3)], [1.0])
        with pytest.raises(DimensionMismatch):
            em_fixed.loglik(blobs_2d, model, 1.0)
        with pytest.raises(DimensionMismatch):
            em_fixed.e_step(blobs_2d, model, 1.0)

    def test_expected_complete_loglik_manual(self):
        model = model_from_parameters(
            [np.array([0.0]), np.array([2.0])], [np.eye(1), 4.0 * np.eye(1)], [0.25, 0.75]
        )
        data = validate_dataset([[1.0]])
        eta = Responsibilities(np.array([[0.4, 0.6]]))
        w = 2.0
        expected = 0.4 * (np.log(0.25) - 0.0 - 0.5 * w * 1.0) + 0.6 * (
            np.log(0.75) - 0.5 * np.log(4.0) - 0.5 * w * (1.0 / 4.0)
        )
        got = em_fixed.expected_complete_loglik(data, model, eta, [2.0])
        assert got == pytest.approx(expected, rel=1e-12)

    def test_m_step_maximises_expected_complete_loglik(self, blobs_2d, blobs_model):
        w = np.linspace(0.5, 2.0, blobs_2d.n)
        eta = em_fixed.e_step(blobs_2d, blobs_model, w)
        updated = em_fixed.m_step(blobs_2d, eta, w)
        before = em_fixed.expected_complete_loglik(blobs_2d, blobs_model, eta, w)
        after = em_fixed.expected_complete_loglik(blobs_2d, updated, eta, w)
        assert after >= before


class TestFit:
    def test_monotone_trace_and_convergence(self, blobs_2d, blobs_model):
        report = em_fixed.fit(
            blobs_2d, blobs_model, 1.0, FitConfig(max_iter=200, rel_tol=1e-9)
        )
        trace = np.array(report.objective_trace)
        assert report.converged
        assert trace.shape[0] == report.iterations + 1
        assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))

    def test_trace_starts_at_initial_loglik(self, blobs_2d, blobs_model):
        report = em_fixed.fit(blobs_2d, blobs_model, 1.0, FitConfig(max_iter=5, rel_tol=0.0))
        assert report.objective_trace[0] == pytest.approx(
            em_fixed.loglik(blobs_2d, blobs_model, 1.0)
        )
        assert report.iterations == 5
        assert not report.converged

    def test_recovers_blob_means(self, blobs_2d, blobs_model):
        report = em_fixed.fit(blobs_2d, blobs_model, 1.0, FitConfig(rel_tol=1e-8))
        truth = np.array([[0.0, 0.0], [120.0, 0.0], [0.0, 120.0]])
        fitted = np.vstack([c.mean for c in report.final_model.components])
        # Match greedily; the blobs are far apart so this is unambiguous.
        for mu in truth:
            assert np.min(np.linalg.norm(fitted - mu, axis=1)) < 5.0

    def test_zero_iteration_budget(self, blobs_2d, blobs_model):
        report = em_fixed.fit(blobs_2d, blobs_model, 1.0, FitConfig(max_iter=0, rel_tol=0.01))
        assert report.iterations == 0
        assert not report.converged
        assert report.final_model is blobs_model

    def test_matches_reference_gmm_lockstep(self, blobs_2d, blobs_model):
        """Unit weights reduce the updates to plain GMM-EM, step by step."""
        ref = ReferenceGMM(
            [c.mean for c in blobs_model.components],
            [c.full_covariance() for c in blobs_model.components],
            blobs_model.proportions,
        )
        model = blobs_model
        for _ in range(6):
            eta = em_fixed.e_step(blobs_2d, model, 1.0)
            model = em_fixed.m_step(blobs_2d, eta, 1.0)
            ref.iterate(blobs_2d.points)
            assert np.max(np.abs(model.proportions - ref.proportions)) < 1e-10
            for comp, mu, cov in zip(model.components, ref.means, ref.covariances):
                assert np.max(np.abs(comp.mean - mu)) < 1e-10
                assert np.max(np.abs(comp.full_covariance() - cov)) < 1e-10


class TestEmptyComponents:
    def test_reseed_keeps_model_usable(self):
        # Second component sits so far away it collects no responsibility.
        gen = np.random.default_rng(3)
        data = validate_dataset(gen.normal(0.0, 1.0, size=(40, 2)))
        model = model_from_parameters(
            [np.zeros(2), np.full(2, 1e6)], [np.eye(2), np.eye(2)], [0.5, 0.5]
        )
        eta = em_fixed.e_step(data, model, 1.0)
        assert eta.matrix[:, 1].sum() == pytest.approx(0.0, abs=1e-12)
        updated = em_fixed.m_step(data, eta, 1.0)
        # The dead component is reseeded on an actual data point.
        reseeded = updated.components[1].mean
        assert np.min(np.linalg.norm(data.points - reseeded, axis=1)) == pytest.approx(0.0)
