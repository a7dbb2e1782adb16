"""Straightforward fixed- and random-weight EM loops used as a test oracle.

Each iteration here runs the textbook sequence of separate passes: an
e-step that builds the log-density matrix and normalises it, a weight
posterior step (random weights) that recomputes the Mahalanobis distances,
an M-step that rebuilds every component from scratch, and a separate
log-likelihood pass over the new model.  The package runs one fused loop
with one Mahalanobis matrix per iteration; it must reproduce this oracle
bit for bit.  The densities, the row normaliser, the log-sum-exp, the
weight posterior and the M-step are written out here in their plain
NumPy/SciPy form instead of being imported, so the package's shared
kernels are checked too.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaln

from wdmix import (
    CovarianceShape,
    FitConfig,
    FitReport,
    GaussianComponent,
    MixtureModel,
    Responsibilities,
    WeightState,
)
from wdmix.core import COVARIANCE_FLOOR_REL

_LOG_2PI = float(np.log(2.0 * np.pi))


def _maha_matrix(points, model):
    cols = []
    for comp in model.components:
        diff = points - comp.mean
        if comp.is_diagonal:
            cols.append(np.sum(diff * diff / comp.covariance, axis=1))
        else:
            z = solve_triangular(comp.chol, diff.T, lower=True, check_finite=False)
            cols.append(np.sum(z * z, axis=0))
    return np.column_stack(cols)


def _log_dets(model):
    return np.array([comp.log_det for comp in model.components])


def _gaussian_matrix(points, model, w):
    d = points.shape[1]
    return (
        -0.5 * d * _LOG_2PI
        + 0.5 * d * np.log(w)[:, None]
        - 0.5 * _log_dets(model)[None, :]
        - 0.5 * w[:, None] * _maha_matrix(points, model)
    )


def _pearson7_matrix(points, model, alpha, beta):
    half = 0.5 * points.shape[1]
    b = beta[:, None]
    return (
        (gammaln(alpha + half) - gammaln(alpha))[:, None]
        - 0.5 * _log_dets(model)[None, :]
        - half * (_LOG_2PI + np.log(b))
        - (alpha[:, None] + half) * np.log1p(_maha_matrix(points, model) / (2.0 * b))
    )


def _log_weighted(model, log_dens):
    with np.errstate(divide="ignore"):
        return log_dens + np.log(model.proportions)[None, :]


def _normalize(log_weighted):
    shift = np.max(log_weighted, axis=1, keepdims=True)
    assert np.all(np.isfinite(shift))
    summed = np.sum(np.exp(log_weighted - shift), axis=1, keepdims=True)
    norm = np.squeeze(np.log(summed) + shift, axis=1)
    eta = np.exp(log_weighted - norm[:, None])
    eta /= eta.sum(axis=1, keepdims=True)
    return Responsibilities(eta)


def _loglik(log_weighted):
    shift = np.max(log_weighted, axis=1, keepdims=True)
    shift_safe = np.where(np.isfinite(shift), shift, 0.0)
    with np.errstate(invalid="ignore"):
        summed = np.sum(np.exp(log_weighted - shift_safe), axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        out = np.log(summed) + shift_safe
    out = np.where(np.isfinite(shift), out, shift)
    return float(np.sum(np.squeeze(out, axis=1)))


def _floored(cov, fallback_scale):
    diag = np.diagonal(cov) if cov.ndim == 2 else cov
    scale = float(np.sum(diag)) / diag.shape[0]
    if not scale > 0.0:
        scale = float(fallback_scale) if fallback_scale > 0.0 else 1.0
    ridge = COVARIANCE_FLOOR_REL * scale
    if cov.ndim == 2:
        out = cov.copy()
        out[np.diag_indices_from(out)] += ridge
        return out
    return cov + ridge


def _m_step(points, eta, weight_matrix, shape):
    n, d = points.shape
    shape = CovarianceShape(shape)
    resp_sums = eta.sum(axis=0)
    omega = eta * weight_matrix
    omega_sums = omega.sum(axis=0)
    global_scale = float(np.trace(np.atleast_2d(np.cov(points.T, bias=True)))) / d
    empty = resp_sums < 1e-10 * n
    props = resp_sums / n
    props = props / props.sum()
    comps = []
    reseed_order = None
    for j in range(eta.shape[1]):
        if empty[j]:
            if reseed_order is None:
                reseed_order = np.argsort(np.max(eta, axis=1))
            idx = int(reseed_order[list(empty[: j + 1]).count(True) - 1])
            mu = points[idx].copy()
            diff = points - points.mean(axis=0)
            cov = diff.T @ diff / n
            if shape == CovarianceShape.DIAGONAL:
                cov = np.diagonal(cov).copy()
        else:
            mu = omega[:, j] @ points / omega_sums[j]
            diff = points - mu
            if shape == CovarianceShape.DIAGONAL:
                cov = (omega[:, j] @ (diff * diff)) / resp_sums[j]
            else:
                cov = (diff * omega[:, j : j + 1]).T @ diff / resp_sums[j]
        comps.append(GaussianComponent(mu, _floored(cov, global_scale)))
    return MixtureModel(tuple(comps), props, shape)


def _converged(trace, rel_tol):
    prev = trace[-2]
    return abs(trace[-1] - prev) < rel_tol * max(abs(prev), 1e-300)


def reference_fit_fixed(points, initial_model, w, config: FitConfig) -> FitReport:
    """Fixed-weight EM with separate e-step, M-step and log-likelihood passes."""
    model = initial_model
    trace = [_loglik(_log_weighted(model, _gaussian_matrix(points, model, w)))]
    converged, iterations = False, 0
    for _ in range(config.max_iter):
        eta = _normalize(_log_weighted(model, _gaussian_matrix(points, model, w)))
        model = _m_step(points, eta.matrix, w[:, None], model.covariance_shape)
        trace.append(_loglik(_log_weighted(model, _gaussian_matrix(points, model, w))))
        iterations += 1
        if _converged(trace, config.rel_tol):
            converged = True
            break
    eta = _normalize(_log_weighted(model, _gaussian_matrix(points, model, w)))
    return FitReport(tuple(trace), model, eta, WeightState.fixed(w), iterations, converged)


def reference_fit_weighted(points, initial_model, alpha, beta, config: FitConfig) -> FitReport:
    """Random-weight EM with separate assignment, weight-posterior, M-step and likelihood passes."""
    prior = WeightState.random_prior(alpha, beta)
    post_a = alpha + 0.5 * points.shape[1]

    def posterior(model):
        post_b = beta[:, None] + 0.5 * _maha_matrix(points, model)
        return prior.with_posterior(post_a, post_b)

    model = initial_model
    trace = [_loglik(_log_weighted(model, _pearson7_matrix(points, model, alpha, beta)))]
    converged, iterations = False, 0
    for _ in range(config.max_iter):
        eta = _normalize(_log_weighted(model, _pearson7_matrix(points, model, alpha, beta)))
        model = _m_step(points, eta.matrix, posterior(model).post_mean, model.covariance_shape)
        trace.append(_loglik(_log_weighted(model, _pearson7_matrix(points, model, alpha, beta))))
        iterations += 1
        if _converged(trace, config.rel_tol):
            converged = True
            break
    eta = _normalize(_log_weighted(model, _pearson7_matrix(points, model, alpha, beta)))
    weights = posterior(model)
    weights = weights.with_marginal(np.sum(eta.matrix * weights.post_mean, axis=1))
    return FitReport(tuple(trace), model, eta, weights, iterations, converged)
