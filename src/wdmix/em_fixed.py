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
    data_scale,
    floored_covariance,
    weighted_component,
)
from .densities import (
    FixedWeights,
    expected_log_terms,
    mahalanobis_matrix,
    normalize_log_responsibilities,
)
from .errors import LengthMismatch, NonPositiveWeight

_EMPTY_REL = 1e-10


def _regime(data, weights) -> tuple[Dataset, FixedWeights]:
    """Validated data and the fixed-weight kernel of a weight vector, scalar or FIXED state."""
    data = as_dataset(data)
    if not isinstance(weights, WeightState):
        w = np.asarray(weights, dtype=np.float64)
        weights = WeightState.fixed(np.full(data.n, float(w)) if w.ndim == 0 else w)
    if weights.mode != WeightMode.FIXED:
        raise NonPositiveWeight("fixed-weight EM requires a FIXED weight state")
    if weights.n != data.n:
        raise LengthMismatch(f"{weights.n} weights for {data.n} points")
    return data, FixedWeights(weights.fixed_w[:, None], data.d)


def weighted_m_step(
    points: np.ndarray,
    eta: np.ndarray,
    weight_matrix: np.ndarray,
    covariance_shape: CovarianceShape,
    fallback_scale: float,
) -> MixtureModel:
    """Closed-form parameter update shared by both weighting regimes.

    ``weight_matrix`` broadcasts against ``eta``: shape (n, 1) for fixed
    weights, (n, K) for per-component posterior weight means.  Proportions
    use plain responsibility sums; means and covariances use
    weight-multiplied responsibilities, but the covariance denominator stays
    unweighted.  ``fallback_scale`` is the data's :func:`data_scale`, the
    covariance ridge of a collapsed component.
    """
    n = points.shape[0]
    shape = CovarianceShape(covariance_shape)
    resp_sums = eta.sum(axis=0)
    omega = eta * weight_matrix  # (n, K)
    omega_sums = omega.sum(axis=0)

    empty = resp_sums < _EMPTY_REL * n
    props = resp_sums / n
    props = props / props.sum()

    comps = []
    reseed_order = None
    for j in range(eta.shape[1]):
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
            cov = floored_covariance(cov, fallback_scale)
        else:
            # The centred points are dropped at once, not kept into the next component's update.
            mu, cov = weighted_component(
                points, omega[:, j], omega_sums[j], resp_sums[j], shape, fallback_scale
            )[:2]
        comps.append(GaussianComponent(mu, cov))
    return MixtureModel(tuple(comps), props, shape)


def mixture_posterior(points: np.ndarray, model: MixtureModel, kernel) -> tuple:
    """One e-step under a weighting regime: (Mahalanobis matrix, responsibilities, log-likelihood).

    The row log-normalisers of the responsibilities are the points'
    log-likelihoods, so no separate likelihood pass is needed.
    """
    maha = mahalanobis_matrix(points, model.components)
    log_weighted = kernel.log_density(maha, np.array([c.log_det for c in model.components]))
    with np.errstate(divide="ignore"):
        log_weighted += np.log(model.proportions)[None, :]
    eta, log_norm = normalize_log_responsibilities(log_weighted)
    return maha, eta, float(np.sum(log_norm))


def expected_terms(points: np.ndarray, model: MixtureModel, eta: np.ndarray, wbar: np.ndarray) -> float:
    """Parameter-dependent expected complete-data objective; ``wbar`` holds the M-step weights."""
    active = model.proportions > 0.0
    comps = [c for c, keep in zip(model.components, active) if keep]
    maha = mahalanobis_matrix(points, comps)
    log_pi = np.log(model.proportions[active])
    if wbar.shape[1] > 1:
        wbar = wbar[:, active]
    log_dets = np.array([c.log_det for c in comps])
    return expected_log_terms(eta[:, active], log_pi, log_dets, wbar, maha)


def run_em(points: np.ndarray, initial_model: MixtureModel, kernel, config: FitConfig) -> FitReport:
    """The EM loop of both weighting regimes.

    Each iteration computes one Mahalanobis matrix, one log-density matrix
    and one row normalisation (:func:`mixture_posterior`).  The trace starts
    with the initial model's log-likelihood.  The kernel records the
    report's weights from the final model's distances and responsibilities.
    """
    fallback_scale = data_scale(points)
    model = initial_model
    maha, eta, ll = mixture_posterior(points, model, kernel)
    trace = [ll]
    converged = False
    iterations = 0
    for _ in range(config.max_iter):
        model = weighted_m_step(
            points, eta, kernel.weight_means(maha), model.covariance_shape, fallback_scale
        )
        maha, eta, ll = mixture_posterior(points, model, kernel)
        trace.append(ll)
        iterations += 1
        prev = trace[-2]
        if abs(ll - prev) < config.rel_tol * max(abs(prev), 1e-300):
            converged = True
            break
    resp = Responsibilities(eta)
    return FitReport(
        objective_trace=tuple(trace),
        final_model=model,
        final_responsibilities=resp,
        final_weights=kernel.record(maha, resp.matrix),
        iterations=iterations,
        converged=converged,
    )


def e_step(data, model: MixtureModel, weights) -> Responsibilities:
    """Responsibilities under scaled-Gaussian densities with fixed weights."""
    data, kernel = _regime(data, weights)
    return Responsibilities(mixture_posterior(data.points, model, kernel)[1])


def m_step(
    data,
    responsibilities: Responsibilities,
    weights,
    covariance_shape=CovarianceShape.FULL,
) -> MixtureModel:
    """Weighted parameter update for fixed weights."""
    data, kernel = _regime(data, weights)
    return weighted_m_step(
        data.points,
        responsibilities.matrix,
        kernel.w,
        covariance_shape,
        data_scale(data.points),
    )


def loglik(data, model: MixtureModel, weights) -> float:
    """Observed-data log-likelihood sum_i log sum_k pi_k N(x_i; mu_k, Sigma_k / w_i)."""
    data, kernel = _regime(data, weights)
    return mixture_posterior(data.points, model, kernel)[2]


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
    data, kernel = _regime(data, weights)
    return expected_terms(data.points, model, responsibilities.matrix, kernel.w)


def fit(data, initial_model: MixtureModel, weights, config: FitConfig | None = None) -> FitReport:
    """Run fixed-weight EM until the relative log-likelihood change is small.

    The objective trace starts with the initial model's log-likelihood and
    records one value per iteration.
    """
    data, kernel = _regime(data, weights)
    return run_em(data.points, initial_model, kernel, config or FitConfig())
