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
    data_scale,
)
from .densities import GammaWeights, mahalanobis_matrix
from .em_fixed import expected_terms, mixture_posterior, run_em, weighted_m_step
from .errors import DimensionMismatch, LengthMismatch, NonPositiveShape


def _regime(data, weight_state) -> tuple[Dataset, GammaWeights]:
    """Validated data and the kernel of gamma priors given as a RANDOM state or an (alpha, beta) pair."""
    data = as_dataset(data)
    if isinstance(weight_state, tuple):
        if len(weight_state) != 2:
            raise NonPositiveShape("gamma priors must be an (alpha, beta) pair")
        weight_state = WeightState.random_prior(*weight_state)
    if not isinstance(weight_state, WeightState) or weight_state.mode != WeightMode.RANDOM:
        raise NonPositiveShape("random-weight EM requires gamma weight priors")
    if weight_state.n != data.n:
        raise LengthMismatch(f"{weight_state.n} weight priors for {data.n} points")
    return data, GammaWeights(weight_state.prior_alpha[:, None], weight_state.prior_beta[:, None], data.d)


def e_step_assignments(data, model: MixtureModel, weight_state) -> Responsibilities:
    """Responsibilities from prior-marginalised (Pearson VII) densities."""
    data, kernel = _regime(data, weight_state)
    return Responsibilities(mixture_posterior(data.points, model, kernel)[1])


def e_step_weights(data, model: MixtureModel, weight_state) -> WeightState:
    """Gamma posterior update of the weights against the current model.

    Posterior shape a_i = alpha_i + d/2 is shared across components;
    posterior rates b_ik = beta_i + Mah^2(x_i, component k) / 2 and the
    posterior means a_i / b_ik are per component.
    """
    data, kernel = _regime(data, weight_state)
    return kernel.posterior(mahalanobis_matrix(data.points, model.components))


def _require_posterior(weight_state: WeightState, responsibilities: Responsibilities) -> None:
    if weight_state.post_b is None:
        raise DimensionMismatch("weight state has no posterior; run the weight step first")
    if weight_state.post_b.shape != responsibilities.matrix.shape:
        raise DimensionMismatch("posterior means and responsibilities disagree in shape")


def marginal_weight_means(weight_state: WeightState, responsibilities: Responsibilities) -> np.ndarray:
    """Assignment-averaged posterior weight means, one per point."""
    _require_posterior(weight_state, responsibilities)
    return weight_state.averaged_means(responsibilities.matrix)


def m_step(
    data,
    responsibilities: Responsibilities,
    weight_state: WeightState,
    covariance_shape=CovarianceShape.FULL,
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
    )


def marginal_loglik(data, model: MixtureModel, weight_state) -> float:
    """Observed-data log-likelihood with weights integrated out.

    sum_i log sum_k pi_k * PearsonVII(x_i; mu_k, Sigma_k, alpha_i, beta_i).
    """
    data, kernel = _regime(data, weight_state)
    return mixture_posterior(data.points, model, kernel)[2]


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
    data, kernel = _regime(data, weight_state)
    return run_em(data.points, initial_model, kernel, config or FitConfig())
