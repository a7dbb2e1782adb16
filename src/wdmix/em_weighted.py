"""EM for Gaussian mixtures whose point weights are gamma random variables.

Each point i carries a gamma prior Gamma(alpha_i, beta_i) over its precision
scale w_i.  Marginalising w_i turns component densities into Pearson type
VII (Student-like) laws, which is what the assignment step uses.  The
weight-posterior step then produces per-point, per-component posterior
means that feed the parameter update.  The priors are fixed at
initialisation and never re-estimated.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CovarianceShape,
    Dataset,
    as_dataset,
    FitConfig,
    FitReport,
    MixtureModel,
    Responsibilities,
    WeightMode,
    WeightState,
)
from .densities import (
    expected_log_terms,
    log_mixture_density,
    mahalanobis_matrix,
    normalize_log_responsibilities,
    pearson7_log_matrix,
)
from .em_fixed import weighted_m_step
from .errors import DimensionMismatch, LengthMismatch, NonPositiveShape


def _random_state(data: Dataset, weight_state) -> WeightState:
    if isinstance(weight_state, tuple):
        if len(weight_state) != 2:
            raise NonPositiveShape("gamma priors must be an (alpha, beta) pair")
        weight_state = WeightState.random_prior(*weight_state)
    if not isinstance(weight_state, WeightState) or weight_state.mode != WeightMode.RANDOM:
        raise NonPositiveShape("random-weight EM requires gamma weight priors")
    if weight_state.n != data.n:
        raise LengthMismatch(f"{weight_state.n} weight priors for {data.n} points")
    return weight_state


def e_step_assignments(data, model: MixtureModel, weight_state) -> Responsibilities:
    """Responsibilities from prior-marginalised (Pearson VII) densities."""
    data = as_dataset(data)
    state = _random_state(data, weight_state)
    log_dens = pearson7_log_matrix(
        data.points, model.components, state.prior_alpha, state.prior_beta
    )
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.proportions)
    return Responsibilities(normalize_log_responsibilities(log_dens + log_pi[None, :]))


def e_step_weights(data, model: MixtureModel, weight_state) -> WeightState:
    """Gamma posterior update of the weights against the current model.

    Posterior shape a_i = alpha_i + d/2 is shared across components;
    posterior rates b_ik = beta_i + Mah^2(x_i, component k) / 2 and the
    posterior means a_i / b_ik are per component.
    """
    data = as_dataset(data)
    state = _random_state(data, weight_state)
    maha = mahalanobis_matrix(data.points, model.components)
    post_a = state.prior_alpha + 0.5 * data.d
    post_b = state.prior_beta[:, None] + 0.5 * maha
    return state.with_posterior(post_a, post_b)


def marginal_weight_means(weight_state: WeightState, responsibilities: Responsibilities) -> np.ndarray:
    """Assignment-averaged posterior weight means, one per point."""
    if weight_state.post_mean is None:
        raise DimensionMismatch("weight state has no posterior; run the weight step first")
    if weight_state.post_mean.shape != responsibilities.matrix.shape:
        raise DimensionMismatch("posterior means and responsibilities disagree in shape")
    return np.sum(responsibilities.matrix * weight_state.post_mean, axis=1)


def m_step(
    data,
    responsibilities: Responsibilities,
    weight_state: WeightState,
    covariance_shape=CovarianceShape.FULL,
    reseed_empty: bool = True,
) -> MixtureModel:
    """Parameter update using per-component posterior weight means."""
    data = as_dataset(data)
    if weight_state.post_mean is None:
        raise DimensionMismatch("weight state has no posterior; run the weight step first")
    if weight_state.post_mean.shape != responsibilities.matrix.shape:
        raise DimensionMismatch("posterior means and responsibilities disagree in shape")
    return weighted_m_step(
        data.points,
        responsibilities.matrix,
        weight_state.post_mean,
        covariance_shape,
        reseed_empty=reseed_empty,
    )


def marginal_loglik(data, model: MixtureModel, weight_state) -> float:
    """Observed-data log-likelihood with weights integrated out.

    sum_i log sum_k pi_k * PearsonVII(x_i; mu_k, Sigma_k, alpha_i, beta_i).
    """
    data = as_dataset(data)
    state = _random_state(data, weight_state)
    log_dens = pearson7_log_matrix(
        data.points, model.components, state.prior_alpha, state.prior_beta
    )
    return float(np.sum(log_mixture_density(data.points, model, log_dens)))


def expected_complete_loglik(
    data,
    model: MixtureModel,
    responsibilities: Responsibilities,
    weight_state: WeightState,
) -> float:
    """Expected complete-data objective for random weights.

    Parameter-dependent terms only:
    sum_ik eta_ik (log pi_k - 0.5 log|Sigma_k| - 0.5 wbar_ik Mah^2_ik),
    with wbar the posterior weight means, restricted to components with
    positive proportion.
    """
    data = as_dataset(data)
    if weight_state.post_mean is None:
        raise DimensionMismatch("weight state has no posterior; run the weight step first")
    eta = responsibilities.matrix
    if weight_state.post_mean.shape != eta.shape:
        raise DimensionMismatch("posterior means and responsibilities disagree in shape")
    active = model.proportions > 0.0
    comps = [c for c, keep in zip(model.components, active) if keep]
    maha = mahalanobis_matrix(data.points, comps)
    log_dets = np.array([c.log_det for c in comps])
    log_pi = np.log(model.proportions[active])
    return expected_log_terms(
        eta[:, active], log_pi, log_dets, weight_state.post_mean[:, active], maha
    )


def fit(
    data,
    initial_model: MixtureModel,
    weight_state,
    config: FitConfig | None = None,
) -> FitReport:
    """Alternate assignment, weight-posterior, and parameter updates.

    Both expectation steps are evaluated against the current model before
    the parameters move.  The trace records the weight-marginalised
    log-likelihood, starting from the initial model.
    """
    cfg = config or FitConfig()
    data = as_dataset(data)
    state = _random_state(data, weight_state)
    model = initial_model
    trace = [marginal_loglik(data, model, state)]
    converged = False
    iterations = 0
    for _ in range(cfg.max_iter):
        eta = e_step_assignments(data, model, state)
        posterior = e_step_weights(data, model, state)
        model = m_step(data, eta, posterior, model.covariance_shape)
        ll = marginal_loglik(data, model, state)
        trace.append(ll)
        iterations += 1
        prev = trace[-2]
        if abs(ll - prev) < cfg.rel_tol * max(abs(prev), 1e-300):
            converged = True
            break
    eta = e_step_assignments(data, model, state)
    posterior = e_step_weights(data, model, state)
    final_weights = posterior.with_marginal(marginal_weight_means(posterior, eta))
    return FitReport(
        objective_trace=tuple(trace),
        final_model=model,
        final_responsibilities=eta,
        final_weights=final_weights,
        iterations=iterations,
        converged=converged,
    )
