"""EM for Gaussian mixtures with fixed per-point precision weights.

Each point carries a known weight w_i that scales its covariance:
component densities are N(x_i; mu_k, Sigma_k / w_i).  Setting every weight
to one recovers the standard Gaussian mixture exactly, step for step.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CovarianceShape,
    Dataset,
    as_dataset,
    FitConfig,
    FitReport,
    GaussianComponent,
    MixtureModel,
    Responsibilities,
    WeightMode,
    WeightState,
    floored_covariance,
)
from .densities import (
    expected_log_terms,
    log_mixture_density,
    mahalanobis_matrix,
    normalize_log_responsibilities,
    scaled_gaussian_log_matrix,
)
from .errors import EmptyComponent, LengthMismatch, NonPositiveWeight

_EMPTY_REL = 1e-10


def _weights_vector(data: Dataset, weights) -> np.ndarray:
    if isinstance(weights, WeightState):
        if weights.mode != WeightMode.FIXED:
            raise NonPositiveWeight("fixed-weight EM requires a FIXED weight state")
        w = weights.fixed_w
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim == 0:
            w = np.full(data.n, float(w))
    if w.shape != (data.n,):
        raise LengthMismatch(f"{w.shape[0]} weights for {data.n} points")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise NonPositiveWeight("weights must be positive and finite")
    return w


def weighted_m_step(
    points: np.ndarray,
    eta: np.ndarray,
    weight_matrix: np.ndarray,
    covariance_shape: CovarianceShape,
    reseed_empty: bool = True,
) -> MixtureModel:
    """Closed-form parameter update shared by both weighting regimes.

    ``weight_matrix`` broadcasts against ``eta``: shape (n, 1) for fixed
    weights, (n, K) for per-component posterior weight means.  Proportions
    use plain responsibility sums; means and covariances use
    weight-multiplied responsibilities, but the covariance denominator stays
    unweighted.
    """
    n, d = points.shape
    k = eta.shape[1]
    shape = CovarianceShape(covariance_shape)
    resp_sums = eta.sum(axis=0)
    omega = eta * weight_matrix  # (n, K)
    omega_sums = omega.sum(axis=0)
    global_scale = float(np.trace(np.atleast_2d(np.cov(points.T, bias=True)))) / d

    empty = resp_sums < _EMPTY_REL * n
    if np.any(empty) and not reseed_empty:
        raise EmptyComponent(f"components {np.nonzero(empty)[0].tolist()} have no support")

    props = resp_sums / n
    props = props / props.sum()

    comps = []
    reseed_order = None
    for j in range(k):
        if empty[j]:
            if reseed_order is None:
                # Points least claimed by any component make the best reseeds.
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
        comps.append(GaussianComponent(mu, floored_covariance(cov, global_scale)))
    return MixtureModel(tuple(comps), props, shape)


def e_step(data, model: MixtureModel, weights) -> Responsibilities:
    """Responsibilities under scaled-Gaussian densities with fixed weights."""
    data = as_dataset(data)
    w = _weights_vector(data, weights)
    log_dens = scaled_gaussian_log_matrix(data.points, model.components, w)
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.proportions)
    return Responsibilities(normalize_log_responsibilities(log_dens + log_pi[None, :]))


def m_step(
    data,
    responsibilities: Responsibilities,
    weights,
    covariance_shape=CovarianceShape.FULL,
    reseed_empty: bool = True,
) -> MixtureModel:
    """Weighted parameter update for fixed weights."""
    data = as_dataset(data)
    w = _weights_vector(data, weights)
    return weighted_m_step(
        data.points,
        responsibilities.matrix,
        w[:, None],
        covariance_shape,
        reseed_empty=reseed_empty,
    )


def loglik(data, model: MixtureModel, weights) -> float:
    """Observed-data log-likelihood sum_i log sum_k pi_k N(x_i; mu_k, Sigma_k / w_i)."""
    data = as_dataset(data)
    w = _weights_vector(data, weights)
    log_dens = scaled_gaussian_log_matrix(data.points, model.components, w)
    return float(np.sum(log_mixture_density(data.points, model, log_dens)))


def expected_complete_loglik(
    data,
    model: MixtureModel,
    responsibilities: Responsibilities,
    weights,
) -> float:
    """Expected complete-data objective for fixed weights.

    Only the parameter-dependent terms are kept:
    sum_ik eta_ik (log pi_k - 0.5 log|Sigma_k| - 0.5 w_i Mah^2_ik),
    restricted to components with positive proportion.
    """
    data = as_dataset(data)
    w = _weights_vector(data, weights)
    eta = responsibilities.matrix
    active = model.proportions > 0.0
    comps = [c for c, keep in zip(model.components, active) if keep]
    maha = mahalanobis_matrix(data.points, comps)
    log_dets = np.array([c.log_det for c in comps])
    log_pi = np.log(model.proportions[active])
    return expected_log_terms(eta[:, active], log_pi, log_dets, w[:, None], maha)


def fit(data, initial_model: MixtureModel, weights, config: FitConfig | None = None) -> FitReport:
    """Run fixed-weight EM until the relative log-likelihood change is small.

    The objective trace starts with the initial model's log-likelihood and
    records one value per iteration.
    """
    cfg = config or FitConfig()
    data = as_dataset(data)
    w = _weights_vector(data, weights)
    model = initial_model
    trace = [loglik(data, model, w)]
    converged = False
    iterations = 0
    for _ in range(cfg.max_iter):
        eta = e_step(data, model, w)
        model = weighted_m_step(
            data.points, eta.matrix, w[:, None], model.covariance_shape
        )
        ll = loglik(data, model, w)
        trace.append(ll)
        iterations += 1
        prev = trace[-2]
        if abs(ll - prev) < cfg.rel_tol * max(abs(prev), 1e-300):
            converged = True
            break
    eta = e_step(data, model, w)
    return FitReport(
        objective_trace=tuple(trace),
        final_model=model,
        final_responsibilities=eta,
        final_weights=WeightState.fixed(w),
        iterations=iterations,
        converged=converged,
    )
