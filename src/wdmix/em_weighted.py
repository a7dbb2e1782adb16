"""EM for Gaussian mixtures whose point weights are gamma random variables.

Each point i carries a gamma prior Gamma(alpha_i, beta_i) over its precision
scale w_i.  Marginalising w_i turns component densities into Pearson type
VII (Student-like) laws, which is what the assignment step uses.  The
weight-posterior step then produces per-point, per-component posterior
means that feed the parameter update.  The priors are fixed at
initialisation and never re-estimated.
"""

from __future__ import annotations

from dataclasses import replace

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
    data_scale,
)
from .densities import GammaWeights, log_mixture_density, mahalanobis_matrix
from .em_fixed import expected_terms, log_densities, mixture_posterior, run_em, weighted_m_step
from .errors import DimensionMismatch, LengthMismatch, NonPositiveShape


def _regime(data, weight_state) -> tuple[Dataset, WeightState, GammaWeights]:
    """Validated data, gamma priors and their kernel from a RANDOM state or an (alpha, beta) pair."""
    data = as_dataset(data)
    if isinstance(weight_state, tuple):
        if len(weight_state) != 2:
            raise NonPositiveShape("gamma priors must be an (alpha, beta) pair")
        weight_state = WeightState.random_prior(*weight_state)
    if not isinstance(weight_state, WeightState) or weight_state.mode != WeightMode.RANDOM:
        raise NonPositiveShape("random-weight EM requires gamma weight priors")
    if weight_state.n != data.n:
        raise LengthMismatch(f"{weight_state.n} weight priors for {data.n} points")
    kernel = GammaWeights(weight_state.prior_alpha[:, None], weight_state.prior_beta[:, None], data.d)
    return data, weight_state, kernel


def _posterior_state(state: WeightState, kernel: GammaWeights, maha: np.ndarray) -> WeightState:
    return state.with_posterior(kernel.post_a[:, 0], kernel.posterior_rates(maha))


def e_step_assignments(data, model: MixtureModel, weight_state) -> Responsibilities:
    """Responsibilities from prior-marginalised (Pearson VII) densities."""
    data, _, kernel = _regime(data, weight_state)
    return Responsibilities(mixture_posterior(data.points, model, kernel)[1])


def e_step_weights(data, model: MixtureModel, weight_state) -> WeightState:
    """Gamma posterior update of the weights against the current model.

    Posterior shape a_i = alpha_i + d/2 is shared across components;
    posterior rates b_ik = beta_i + Mah^2(x_i, component k) / 2 and the
    posterior means a_i / b_ik are per component.
    """
    data, state, kernel = _regime(data, weight_state)
    return _posterior_state(state, kernel, mahalanobis_matrix(data.points, model.components))


def _require_posterior(weight_state: WeightState, responsibilities: Responsibilities) -> None:
    if weight_state.post_mean is None:
        raise DimensionMismatch("weight state has no posterior; run the weight step first")
    if weight_state.post_mean.shape != responsibilities.matrix.shape:
        raise DimensionMismatch("posterior means and responsibilities disagree in shape")


def marginal_weight_means(weight_state: WeightState, responsibilities: Responsibilities) -> np.ndarray:
    """Assignment-averaged posterior weight means, one per point."""
    _require_posterior(weight_state, responsibilities)
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
    _require_posterior(weight_state, responsibilities)
    return weighted_m_step(
        data.points,
        responsibilities.matrix,
        weight_state.post_mean,
        covariance_shape,
        data_scale(data.points),
        reseed_empty=reseed_empty,
    )


def marginal_loglik(data, model: MixtureModel, weight_state) -> float:
    """Observed-data log-likelihood with weights integrated out.

    sum_i log sum_k pi_k * PearsonVII(x_i; mu_k, Sigma_k, alpha_i, beta_i).
    """
    data, _, kernel = _regime(data, weight_state)
    _, log_dens = log_densities(data.points, model, kernel)
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
    _require_posterior(weight_state, responsibilities)
    return expected_terms(data.points, model, responsibilities.matrix, weight_state.post_mean)


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
    data, state, kernel = _regime(data, weight_state)
    report, maha = run_em(data.points, initial_model, kernel, config or FitConfig())
    posterior = _posterior_state(state, kernel, maha)
    marginal = marginal_weight_means(posterior, report.final_responsibilities)
    return replace(report, final_weights=posterior.with_marginal(marginal))
