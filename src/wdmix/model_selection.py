"""Automatic choice of the number of components by message-length descent.

A mixture is started with many components and trimmed by a component-wise
EM: after each component's expectation pass its proportion is recomputed
with a minimum-support threshold, components whose support falls below half
their parameter count are annihilated, and once the message length
stabilises the weakest surviving component is removed by force.  The model
with the shortest message length over all stages wins.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from . import em_fixed, em_weighted
from .core import (
    AnnihilationEvent,
    CovarianceShape,
    FitReport,
    GaussianComponent,
    MixtureModel,
    Responsibilities,
    WeightMode,
    WeightState,
    as_dataset,
    data_scale,
    factor_covariance,
    weighted_component,
)
from .densities import GammaWeights, expected_log_terms, normalize_log_responsibilities, squared_distances
from .errors import AllAnnihilated, DimensionMismatch, EmptyInput, NoActiveComponents
from .initialization import (
    kmeans,
    knn_kernel_weights,
    model_from_labels,
    pipeline_gamma_priors,
)

@dataclass(frozen=True)
class MmlConfig:
    """Knobs for the selection run.

    ``epsilon`` is the relative message-length change that ends a stage;
    ``max_outer_iter`` caps the total number of component-wise sweeps across
    the whole run.  ``assignment_rates`` picks which gamma rates feed the
    assignment step: "carried" reuses the rates produced by the latest
    weight-posterior step, "prior" always uses the initial priors.
    """

    k_high: int
    k_low: int = 1
    epsilon: float = 1e-5
    max_outer_iter: int = 2000
    weight_mode: WeightMode = WeightMode.RANDOM
    assignment_rates: str = "carried"

    def __post_init__(self):
        if not 1 <= self.k_low <= self.k_high:
            raise DimensionMismatch("need 1 <= k_low <= k_high")
        if self.epsilon < 0.0 or self.max_outer_iter < 0:
            raise DimensionMismatch("epsilon and max_outer_iter must be non-negative")
        if self.assignment_rates not in ("carried", "prior"):
            raise DimensionMismatch("assignment_rates must be 'carried' or 'prior'")
        mode = WeightMode(self.weight_mode)
        object.__setattr__(self, "weight_mode", mode)


@dataclass
class MmlState:
    """Mutable bookkeeping for one selection run (mostly for introspection)."""

    active: list
    message_length: float = np.inf
    best_length: float = np.inf
    best_model: MixtureModel | None = None
    best_weights: WeightState | None = None
    best_responsibilities: Responsibilities | None = None


def truncated_proportions(responsibility_sums, free_params: int) -> np.ndarray:
    """Proportion update with a minimum-support threshold.

    Each component's responsibility column sum is reduced by half its
    parameter count and clipped at zero before normalisation, so components
    whose support cannot pay for their own parameters receive exactly zero
    proportion.  Raises AllAnnihilated when every component is below the
    threshold.
    """
    s = np.asarray(responsibility_sums, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise EmptyInput("responsibility sums must be a non-empty vector")
    trimmed = np.maximum(0.0, s - 0.5 * free_params)
    total = float(trimmed.sum())
    if total <= 0.0:
        raise AllAnnihilated("every component fell below the minimum support")
    return trimmed / total


def message_length(data, model: MixtureModel, responsibilities: Responsibilities, weight_state: WeightState) -> float:
    """Two-part code length of the mixture given the current posteriors.

    Components with zero proportion are excluded everywhere.  The data part
    is the expected complete-data objective; the parameter part charges
    half the parameter count per surviving component at resolution n/12.
    """
    data = as_dataset(data)
    pis = model.proportions
    active = pis > 0.0
    if not np.any(active):
        raise NoActiveComponents("model has no component with positive proportion")
    if responsibilities.k != model.n_components:
        raise DimensionMismatch("responsibilities do not match the model's component count")
    if weight_state.mode == WeightMode.FIXED:
        q_value = em_fixed.expected_complete_loglik(data, model, responsibilities, weight_state)
    else:
        q_value = em_weighted.expected_complete_loglik(data, model, responsibilities, weight_state)
    return _two_part_length(pis[active], q_value, model.free_params_per_component, data.n)


def _two_part_length(pis: np.ndarray, q_value: float, m: int, n: int) -> float:
    """Message length from the surviving proportions and the expected objective."""
    return (
        0.5 * m * float(np.sum(np.log(pis)))
        - q_value
        + 0.5 * pis.size * (m + 1) * (1.0 + np.log(n / 12.0))
    )


class _SelectionEngine:
    """Raw-array state of one selection run, one column per component.

    Components are held as plain mean / covariance / log-determinant arrays.
    ``maha`` and ``log_dens`` cache each component's squared Mahalanobis
    distances and its log density without log pi, one column per component;
    an update recomputes only the columns it changed.  Value objects are
    built only by :meth:`freeze`.

    The densities come from the weighting-regime kernel, applied to (n, 1)
    column slices, and the matrices handed to row and column sums keep the
    same memory layout as a full (n, K+) recomputation would: NumPy's
    pairwise sums depend on layout, and the results are meant to match bit
    for bit.
    """

    def __init__(self, data, config, weights, covariance_shape, seed, initial_model, restarts, q, bandwidth):
        self.cfg = config
        X = data.points
        self.X = X
        self.n, self.d = X.shape
        self.shape = CovarianceShape(covariance_shape)
        self.random = config.weight_mode == WeightMode.RANDOM
        self.carried = False
        # Weights and initial models are checked before the k-means restarts run.
        if weights is None:
            weights = knn_kernel_weights(X, q=min(q, self.n - 1), bandwidth=bandwidth)
            if self.random:
                weights = pipeline_gamma_priors(weights)
        if self.random:
            if not isinstance(weights, WeightState):
                weights = tuple(weights)
            _, self.prior_state, self.kernel = em_weighted._regime(data, weights)
            # Once carried, the assignment step uses the posterior shapes with
            # per-component rates: column j of ``ez_b`` holds beta0 + Mah^2_j / 2
            # as of the latest weight-posterior step.
            self.carried_kernel = GammaWeights(self.kernel.post_a, self.kernel.beta, self.d)
        else:
            _, self.kernel = em_fixed._regime(data, weights)
        if initial_model is None:
            labels, _ = kmeans(X, config.k_high, restarts=restarts, seed=seed)
            initial_model = model_from_labels(X, labels, self.shape)
        elif initial_model.d != self.d:
            raise DimensionMismatch(f"initial model has d={initial_model.d}, data has d={self.d}")
        elif CovarianceShape(initial_model.covariance_shape) != self.shape:
            raise DimensionMismatch("initial model storage does not match covariance_shape")
        self.k_total = initial_model.n_components
        self.m = initial_model.free_params_per_component
        if self.n <= config.k_high * self.m / 2.0:
            warnings.warn(
                f"only {self.n} points for k_high={config.k_high} components "
                f"({self.m} parameters each); selection may be unstable",
                stacklevel=3,
            )
        self.pis = np.array(initial_model.proportions, dtype=np.float64)
        self.active = [k for k in range(self.k_total) if self.pis[k] > 0.0]
        self.global_scale = data_scale(X)

        self.means = [None] * self.k_total
        self.covs = [None] * self.k_total
        self.log_dets = np.empty(self.k_total)
        # Column-major, so every per-component column is contiguous.
        self.maha = np.empty((self.n, self.k_total), order="F")
        self.log_dens = np.empty((self.n, self.k_total), order="F")
        self.ez_b = np.empty((self.n, self.k_total), order="F")  # carried rates, random weights only
        self.dirty: set = set()  # log_dens columns to recompute
        self.refreshed: set = set()  # components moved since the rates were last carried
        for k, comp in enumerate(initial_model.components):
            factor = comp.covariance if comp.is_diagonal else comp.chol
            self._store(k, comp.mean, comp.covariance, factor, comp.log_det)

    # -- cache upkeep -----------------------------------------------------

    def _store(self, k: int, mean, cov, factor, log_det: float) -> None:
        self.means[k] = mean
        self.covs[k] = cov
        self.log_dets[k] = log_det
        self.maha[:, k] = squared_distances(self.X, mean, factor)
        self.dirty.add(k)
        self.refreshed.add(k)

    def _column(self, j: int) -> np.ndarray:
        """(n, 1) log density of every point under component j, without log pi."""
        kernel = self.kernel
        if self.carried:
            kernel = self.carried_kernel.with_rates(self.ez_b[:, j : j + 1])
        return kernel.log_density(self.maha[:, j : j + 1], self.log_dets[j])

    def _carry_rates(self) -> None:
        """Weight-posterior step: rates of every moved component feed the next assignment.

        Every component starts out in ``refreshed``, so the first call, which
        switches the columns from the prior to the carried regime, rewrites
        every active column.
        """
        self.carried = True
        for j in self.refreshed.intersection(self.active):
            self.ez_b[:, j : j + 1] = self.kernel.posterior_rates(self.maha[:, j : j + 1])
            self.dirty.add(j)
        self.refreshed.clear()

    def _responsibilities(self, act: np.ndarray) -> np.ndarray:
        for j in self.dirty.intersection(self.active):
            self.log_dens[:, j : j + 1] = self._column(j)
        self.dirty.clear()
        log_weighted = np.take(self.log_dens, act, axis=1)
        with np.errstate(divide="ignore"):
            log_weighted += np.log(self.pis[act])[None, :]
        eta, _ = normalize_log_responsibilities(log_weighted)
        return eta

    # -- one component-wise sweep ----------------------------------------

    def sweep(self, sweep_index: int, log: list) -> None:
        carry = self.random and self.cfg.assignment_rates == "carried"
        for k in list(self.active):
            eta = self._responsibilities(np.array(self.active))
            wbar = self.kernel.weight_means(self.maha[:, k : k + 1])[:, 0]
            if carry:
                self._carry_rates()
            sums = eta.sum(axis=0)
            new_pis = truncated_proportions(sums, self.m)
            pos = self.active.index(k)
            old_pi = float(self.pis[k])
            self.pis[k] = new_pis[pos]
            if self.pis[k] > 0.0:
                omega = eta[:, pos] * wbar
                mu, cov = weighted_component(
                    self.X, omega, omega.sum(), sums[pos], self.shape, self.global_scale
                )
                chol, log_det = factor_covariance(cov)
                self._store(k, mu, cov, cov if cov.ndim == 1 else chol, log_det)
            else:
                log.append(AnnihilationEvent(sweep_index, k, old_pi))
                self.active.remove(k)
                if not self.active:
                    raise AllAnnihilated("the final surviving component lost support")
            self._renormalize()

    def _renormalize(self) -> None:
        act = np.array(self.active)
        total = float(self.pis[act].sum())
        mask = np.ones(self.k_total, dtype=bool)
        mask[act] = False
        self.pis[mask] = 0.0
        self.pis[act] /= total

    # -- measurement ------------------------------------------------------

    def measure(self) -> float:
        """Message length of the current state, kept for :meth:`freeze`.

        Same arithmetic as :func:`message_length` on the frozen state, from
        the cached distances.
        """
        act = np.array(self.active)
        eta = self._responsibilities(act)
        pis = self.pis[act] / self.pis[act].sum()
        wbar = self.kernel.weight_means(self.maha[:, act])
        maha = np.take(self.maha, act, axis=1)
        q_value = expected_log_terms(eta, np.log(pis), self.log_dets[act], wbar, maha)
        self._measured = (act, pis, eta)
        return _two_part_length(pis, q_value, self.m, self.n)

    def freeze(self) -> tuple:
        """Validated model, responsibilities and weights of the last measured state.

        Called before any further sweep, so the cached distances are still
        those of the measured state.
        """
        act, pis, eta = self._measured
        comps = tuple(GaussianComponent(self.means[k], self.covs[k]) for k in act)
        model = MixtureModel(comps, pis, self.shape)
        resp = Responsibilities(eta)
        if self.random:
            ws = em_weighted._posterior_state(self.prior_state, self.kernel, self.maha[:, act])
            ws = ws.with_marginal(em_weighted.marginal_weight_means(ws, resp))
        else:
            ws = WeightState.fixed(self.kernel.w[:, 0])
        return model, resp, ws


def select_model(
    data,
    config: MmlConfig,
    weights=None,
    covariance_shape=CovarianceShape.FULL,
    seed=None,
    initial_model=None,
    restarts: int = 10,
    q: int = 20,
    bandwidth: float = 100.0,
) -> FitReport:
    """Search component counts from ``k_high`` down to ``k_low``.

    ``weights`` may be ``None`` (kernel weights are computed from the data
    with ``q`` and ``bandwidth``), an ``(alpha, beta)`` pair for random
    mode, a plain vector for fixed mode, or a ready :class:`WeightState`.
    The report's objective trace holds the message length after every
    sweep; the returned model is the checkpoint with the shortest length.
    """
    data = as_dataset(data)
    engine = _SelectionEngine(
        data, config, weights, covariance_shape, seed, initial_model, restarts, q, bandwidth
    )
    state = MmlState(active=engine.active)
    trace: list[float] = []
    kplus_hist: list[int] = []
    checkpoint_lengths: list[float] = []
    ann_log: list[AnnihilationEvent] = []
    sweeps = 0
    converged = True
    stop = False

    while len(engine.active) >= config.k_low and not stop:
        len_prev = None
        while True:
            if sweeps >= config.max_outer_iter:
                converged = False
                stop = True
                break
            try:
                engine.sweep(sweeps, ann_log)
            except AllAnnihilated:
                if state.best_model is None:
                    raise
                converged = False
                stop = True
                break
            current = engine.measure()
            trace.append(current)
            kplus_hist.append(len(engine.active))
            sweeps += 1
            state.message_length = current
            if len_prev is not None and abs(current - len_prev) < config.epsilon * max(
                abs(len_prev), 1e-300
            ):
                break
            len_prev = current
        if stop:
            break
        checkpoint_lengths.append(current)
        if current < state.best_length:
            state.best_length = current
            state.best_model, state.best_responsibilities, state.best_weights = engine.freeze()
        if len(engine.active) > config.k_low:
            act = np.array(engine.active)
            k_star = int(act[int(np.argmin(engine.pis[act]))])
            ann_log.append(AnnihilationEvent(sweeps, k_star, float(engine.pis[k_star])))
            engine.active.remove(k_star)
            engine._renormalize()
        else:
            break

    if state.best_model is None:
        # Budget ran out before any stage converged; report the current state.
        length = engine.measure()
        state.best_length = length
        state.best_model, state.best_responsibilities, state.best_weights = engine.freeze()
        checkpoint_lengths.append(length)

    return FitReport(
        objective_trace=tuple(trace),
        final_model=state.best_model,
        final_responsibilities=state.best_responsibilities,
        final_weights=state.best_weights,
        iterations=sweeps,
        converged=converged,
        annihilation_log=tuple(ann_log),
        kplus_history=tuple(kplus_hist),
        checkpoint_lengths=tuple(checkpoint_lengths),
        best_length=state.best_length,
    )
