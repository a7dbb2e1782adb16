"""The shared EM loop: bit identity with the separate-pass oracle, and invariances."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_em import reference_fit_fixed, reference_fit_weighted
from wdmix import (
    FitConfig,
    GaussianComponent,
    MixtureModel,
    WeightState,
    contaminate_uniform,
    em_fixed,
    em_weighted,
    generate_sim,
    kmeans,
    knn_kernel_weights,
    model_from_labels,
    pipeline_gamma_priors,
)


@lru_cache(maxsize=None)
def _dataset(contaminated: bool):
    data = generate_sim("easy", 200, seed=5)
    return contaminate_uniform(data, 0.3, seed=6) if contaminated else data


@lru_cache(maxsize=None)
def _initial(contaminated: bool, shape: str) -> MixtureModel:
    data = _dataset(contaminated)
    labels, _ = kmeans(data, 5, restarts=2, seed=3)
    return model_from_labels(data, labels, shape)


def _fit(regime, data, initial, config):
    """(package report, oracle report) for one weighting regime."""
    points = data.points
    if regime == "gamma":
        alpha, beta = pipeline_gamma_priors(knn_kernel_weights(data, q=10))
        got = em_weighted.fit(data, initial, (alpha, beta), config)
        return got, reference_fit_weighted(points, initial, alpha, beta, config)
    w = np.ones(data.n) if regime == "unit" else knn_kernel_weights(data, q=10)
    return em_fixed.fit(data, initial, w, config), reference_fit_fixed(points, initial, w, config)


def _assert_models_identical(a: MixtureModel, b: MixtureModel):
    assert a.covariance_shape == b.covariance_shape
    assert np.array_equal(a.proportions, b.proportions)
    for ca, cb in zip(a.components, b.components, strict=True):
        assert np.array_equal(ca.mean, cb.mean)
        assert np.array_equal(ca.covariance, cb.covariance)
        assert ca.log_det == cb.log_det


class TestMatchesSeparatePassOracle:
    """One fused loop reproduces the e-step / M-step / likelihood passes bit for bit."""

    @pytest.mark.parametrize("max_iter", [400, 2, 0])
    @pytest.mark.parametrize("shape", ["full", "diagonal"])
    @pytest.mark.parametrize("regime", ["unit", "knn", "gamma"])
    @pytest.mark.parametrize("contaminated", [False, True])
    def test_bit_identical(self, contaminated, regime, shape, max_iter):
        data, initial = _dataset(contaminated), _initial(contaminated, shape)
        # rel_tol=0 makes the two-iteration run stop on its budget.
        config = FitConfig(max_iter=max_iter, rel_tol=1e-6 if max_iter != 2 else 0.0)
        got, want = _fit(regime, data, initial, config)
        assert got.objective_trace == want.objective_trace
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        if max_iter == 2:
            assert got.iterations == 2 and not got.converged
        _assert_models_identical(got.final_model, want.final_model)
        assert np.array_equal(got.final_responsibilities.matrix, want.final_responsibilities.matrix)
        gw, ww = got.final_weights, want.final_weights
        assert gw.mode == ww.mode
        for name in ("fixed_w", "prior_alpha", "prior_beta", "post_a", "post_b", "post_mean", "marginal_mean"):
            a, b = getattr(gw, name), getattr(ww, name)
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("regime", ["knn", "gamma"])
    def test_trace_ends_are_the_loglikelihoods(self, regime):
        data, initial = _dataset(True), _initial(True, "full")
        report, _ = _fit(regime, data, initial, FitConfig(rel_tol=1e-6))
        if regime == "gamma":
            priors = WeightState.random_prior(report.final_weights.prior_alpha, report.final_weights.prior_beta)
            first = em_weighted.marginal_loglik(data, initial, priors)
            last = em_weighted.marginal_loglik(data, report.final_model, priors)
        else:
            w = report.final_weights.fixed_w
            first = em_fixed.loglik(data, initial, w)
            last = em_fixed.loglik(data, report.final_model, w)
        assert report.objective_trace[0] == first
        assert report.objective_trace[-1] == last


# ---------------------------------------------------------------------------
# Invariances, checked as properties.  rel_tol=0 with a fixed max_iter keeps
# every run to the same number of iterations, so no stop decision can flip.

_PROPERTY = settings(max_examples=10, deadline=None)
_FIXED_ITERS = FitConfig(max_iter=6, rel_tol=0.0)


@lru_cache(maxsize=None)
def _property_case(shape: str):
    data = generate_sim("easy", 120, seed=17)
    labels, _ = kmeans(data, 4, restarts=2, seed=1)
    w = knn_kernel_weights(data, q=10)
    return data, model_from_labels(data, labels, shape), w, pipeline_gamma_priors(w)


def _run(regime, points, initial, w, priors):
    if regime == "gamma":
        return em_weighted.fit(points, initial, priors, _FIXED_ITERS)
    return em_fixed.fit(points, initial, w, _FIXED_ITERS)


@lru_cache(maxsize=None)
def _base_run(regime: str, shape: str):
    data, initial, w, priors = _property_case(shape)
    return _run(regime, data.points, initial, w, priors)


def _assert_models_close(a: MixtureModel, b: MixtureModel, order, cov_scale=1.0):
    assert np.allclose(a.proportions, b.proportions[order], rtol=1e-9, atol=1e-12)
    for ca, j in zip(a.components, order):
        cb = b.components[j]
        assert np.allclose(ca.mean, cb.mean, rtol=1e-9, atol=1e-9)
        assert np.allclose(ca.covariance, cov_scale * cb.covariance, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("shape", ["full", "diagonal"])
@pytest.mark.parametrize("regime", ["fixed", "gamma"])
@_PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_point_permutation_permutes_outputs(regime, shape, seed):
    data, initial, w, (alpha, beta) = _property_case(shape)
    perm = np.random.default_rng(seed).permutation(data.n)
    base = _base_run(regime, shape)
    moved = _run(regime, data.points[perm], initial, w[perm], (alpha[perm], beta[perm]))
    _assert_models_close(moved.final_model, base.final_model, range(initial.n_components))
    assert np.allclose(
        moved.final_responsibilities.matrix, base.final_responsibilities.matrix[perm], atol=1e-9
    )
    if regime == "gamma":
        for name in ("post_mean", "marginal_mean"):
            got, want = getattr(moved.final_weights, name), getattr(base.final_weights, name)
            assert np.allclose(got, want[perm], rtol=1e-9)
    else:
        assert np.array_equal(moved.final_weights.fixed_w, base.final_weights.fixed_w[perm])


@pytest.mark.parametrize("regime", ["fixed", "gamma"])
@_PROPERTY
@given(order=st.permutations(range(4)))
def test_component_relabelling_permutes_outputs(regime, order):
    data, initial, w, priors = _property_case("full")
    order = list(order)
    relabelled = MixtureModel(
        tuple(initial.components[j] for j in order), initial.proportions[order], initial.covariance_shape
    )
    base = _base_run(regime, "full")
    moved = _run(regime, data.points, relabelled, w, priors)
    _assert_models_close(moved.final_model, base.final_model, order)
    assert np.allclose(
        moved.final_responsibilities.matrix, base.final_responsibilities.matrix[:, order], atol=1e-9
    )
    assert np.allclose(moved.objective_trace, base.objective_trace, rtol=1e-12)


@pytest.mark.parametrize("shape", ["full", "diagonal"])
@_PROPERTY
@given(c=st.floats(0.01, 100.0))
def test_weight_scaling_scales_covariances(shape, c):
    data, initial, w, _ = _property_case(shape)
    scaled_initial = MixtureModel(
        tuple(GaussianComponent(comp.mean, c * comp.covariance) for comp in initial.components),
        initial.proportions,
        initial.covariance_shape,
    )
    base = _base_run("fixed", shape)
    scaled = em_fixed.fit(data, scaled_initial, c * w, _FIXED_ITERS)
    _assert_models_close(scaled.final_model, base.final_model, range(initial.n_components), cov_scale=c)
    assert np.allclose(
        scaled.final_responsibilities.matrix, base.final_responsibilities.matrix, atol=1e-9
    )
