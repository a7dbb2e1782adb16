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
    _factor_symmetric,
    as_dataset,
    as_integer,
    data_scale,
    weighted_component,
)
from .densities import GammaWeights, _pairwise_sum, centred_distances, expected_log_terms
from .errors import AllAnnihilated, DegenerateRow, DimensionMismatch, EmptyInput, NaNInput, NoActiveComponents
from .initialization import default_weights, kmeans, model_from_labels

# The shifted exponential cache of _SelectionEngine resets its shift when a
# recomputed column rises more than _SHIFT_MARGIN nats above its row's shift
# (exp(600) is far from overflow), or when a row sum of the cache falls below
# _SUM_FLOOR (far from the subnormal range).
_SHIFT_MARGIN = 600.0
_SUM_FLOOR = 1e-250

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
        for name in ("k_high", "k_low", "max_outer_iter"):
            as_integer(getattr(self, name), name, DimensionMismatch)
        if not 1 <= self.k_low <= self.k_high:
            raise DimensionMismatch("need 1 <= k_low <= k_high")
        if not self.epsilon >= 0.0 or self.max_outer_iter < 0:
            raise DimensionMismatch("epsilon and max_outer_iter must be non-negative")
        if self.assignment_rates not in ("carried", "prior"):
            raise DimensionMismatch("assignment_rates must be 'carried' or 'prior'")
        mode = WeightMode(self.weight_mode)
        object.__setattr__(self, "weight_mode", mode)


def truncated_proportions(responsibility_sums, free_params: int) -> np.ndarray:
    """Proportion update with a minimum-support threshold.

    Each component's responsibility column sum is reduced by half its
    parameter count and clipped at zero before normalisation, so components
    whose support cannot pay for their own parameters receive exactly zero
    proportion.  Raises EmptyInput for no sums, NaNInput for a non-finite
    one, and AllAnnihilated when every component is below the threshold.
    """
    s = np.asarray(responsibility_sums, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise EmptyInput("responsibility sums must be a non-empty vector")
    if not np.isfinite(s).all():
        raise NaNInput("responsibility sums must be finite")
    return _trimmed_proportions(s, free_params)


def _trimmed_proportions(sums: np.ndarray, free_params: int) -> np.ndarray:
    """:func:`truncated_proportions` without its input checks, for the sweep's own sums."""
    trimmed = np.maximum(0.0, sums - 0.5 * free_params)
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
    return _two_part_length(np.log(pis[active]), q_value, model.free_params_per_component, data.n)


def _two_part_length(log_pi: np.ndarray, q_value: float, m: int, n: int) -> float:
    """Message length from the surviving log proportions and the expected objective."""
    return (
        0.5 * m * float(log_pi.sum())
        - q_value
        + 0.5 * log_pi.size * (m + 1) * (1.0 + np.log(n / 12.0))
    )


class _SelectionEngine:
    """Raw-array state of one selection run, one column per component.

    Components are held as plain mean / covariance / log-determinant arrays.
    ``maha`` caches each component's squared Mahalanobis distances, one
    column per component; an update recomputes only the columns it changed,
    each through :meth:`_column` and the component's regime kernel in
    ``kernels``.  Value objects, and with them the covariance validation,
    are built only by :meth:`freeze`.

    Responsibilities come from a shifted exponential cache
    ``E[:, j] = exp(_column(j) - shift)``, with one shift per row: the
    row sums are ``S = E @ pis`` (inactive components have pi = 0 and a
    zeroed column), so a component update needs the column sums
    ``pis * ((1 / S) @ E)`` and its own column only, never the full (n, K+)
    responsibility matrix.  A shift reset recomputes every active column and
    sets each row's shift to its largest log pi + log density: on first use,
    and when a recomputed column rises too far above it or a row sum
    underflows.
    """

    def __init__(self, data, config, kernel, initial_model):
        self.cfg = config
        X = data.points
        self.X = X
        self.n, self.d = X.shape
        self.shape = initial_model.covariance_shape
        self.random = config.weight_mode == WeightMode.RANDOM
        self.kernel = kernel
        if self.random:
            # Once carried, the assignment step uses the posterior shapes with
            # per-component rates beta0 + Mah^2_j / 2 as of the latest
            # weight-posterior step: one with_rates kernel per component.
            self.carried_kernel = GammaWeights(kernel.post_a, kernel.beta, self.d)
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
        self.E = np.zeros((self.n, self.k_total), order="F")  # exp(log density - shift)
        self.shift = None  # (n,) row shifts, set on first use
        self.kernels = [self.kernel] * self.k_total  # per-component; carried rates replace the prior
        self.dirty: set = set()  # E columns to recompute
        self.refreshed: set = set()  # components moved since the rates were last carried
        for k, comp in enumerate(initial_model.components):
            self._store(k, comp.mean, comp.covariance, comp.factor, comp.log_det)

    # -- cache upkeep -----------------------------------------------------

    def _store(self, k: int, mean, cov, factor, log_det: float, diff=None) -> None:
        """Set component k; ``diff``, the centred points ``X - mean`` if at hand, is overwritten."""
        self.means[k] = mean
        self.covs[k] = cov
        self.log_dets[k] = log_det
        if diff is None:
            diff = self.X - mean
        self.maha[:, k] = centred_distances(diff, factor)
        self.dirty.add(k)
        self.refreshed.add(k)

    def _column(self, j: int) -> np.ndarray:
        """(n, 1) log density of every point under component j, without log pi."""
        return self.kernels[j].log_density(self.maha[:, j : j + 1], self.log_dets[j])

    def _carry_rates(self) -> None:
        """Weight-posterior step: rates of every moved component feed the next assignment.

        Every component starts out in ``refreshed``, so the first call, which
        switches the columns from the prior to the carried regime, rewrites
        every active column.
        """
        for j in self.refreshed.intersection(self.active):
            rates = self.kernel.posterior_rates(self.maha[:, j : j + 1])
            self.kernels[j] = self.carried_kernel.with_rates(rates)
            self.dirty.add(j)
        self.refreshed.clear()

    def _inverse_row_sums(self) -> np.ndarray:
        """Refresh the changed columns of the cache, or reset the shift, and return 1 / S."""
        reset = self.shift is None
        for j in () if reset else self.dirty.intersection(self.active):
            e = self.E[:, j]
            np.subtract(self._column(j)[:, 0], self.shift, out=e)
            if not e.max() <= _SHIFT_MARGIN:
                reset = True
                break
            np.exp(e, out=e)
        self.dirty.clear()
        if not reset:
            S = self.E @ self.pis
            reset = not S.min() >= _SUM_FLOOR
        if reset:
            act = self.active
            cols = np.hstack([self._column(j) for j in act])
            shift = (cols + np.log(self.pis[act])).max(axis=1)
            finite = np.isfinite(shift)
            if not np.all(finite):
                bad = int(np.argmin(finite))
                raise DegenerateRow(f"point {bad} has no component with positive density")
            self.shift = shift
            self.E[:, act] = np.exp(cols - shift[:, None])
            S = self.E @ self.pis
        return 1.0 / S

    # -- one component-wise sweep ----------------------------------------

    def sweep(self, sweep_index: int, log: list) -> None:
        carry = self.random and self.cfg.assignment_rates == "carried"
        for k in list(self.active):
            r = self._inverse_row_sums()
            act = self.active
            sums = self.pis[act] * (r @ self.E)[act]
            eta_k = self.E[:, k] * (self.pis[k] * r)
            wbar = self.kernel.weight_means(self.maha[:, k : k + 1])[:, 0]
            if carry:
                self._carry_rates()
            new_pis = _trimmed_proportions(sums, self.m)
            pos = act.index(k)
            old_pi = float(self.pis[k])
            self.pis[k] = new_pis[pos]
            if self.pis[k] > 0.0:
                omega = eta_k * wbar
                mu, cov, diff = weighted_component(
                    self.X, omega, omega.sum(), sums[pos], self.shape, self.global_scale
                )
                chol, log_det = _factor_symmetric(cov)
                self._store(k, mu, cov, cov if cov.ndim == 1 else chol, log_det, diff)
                self._renormalize()
            else:
                log.append(AnnihilationEvent(sweep_index, k, old_pi))
                self.drop(k)

    def drop(self, k: int) -> None:
        """Annihilate component k: its proportion and its cache column become zero."""
        self.active.remove(k)
        if not self.active:
            raise AllAnnihilated("the final surviving component lost support")
        self.pis[k] = 0.0
        self.E[:, k] = 0.0
        self._renormalize()

    def _renormalize(self) -> None:
        """Rescale the proportions to sum to one; inactive ones are already zero."""
        self.pis /= self.pis.sum()

    # -- measurement ------------------------------------------------------

    def measure(self) -> float:
        """Message length of the current state, kept for :meth:`freeze`.

        Same arithmetic as :func:`message_length` on the frozen state, from
        the cached distances.
        """
        r = self._inverse_row_sums()
        act = np.array(self.active)
        # C order, as message_length's copy of it, so q_value sums in the same order.
        pis_act = self.pis[act]
        eta = np.multiply(self.E[:, act], pis_act, order="C")
        eta *= r[:, None]
        eta /= _pairwise_sum(list(eta.T))[:, None]
        pis = pis_act / pis_act.sum()
        log_pi = np.log(pis)
        maha = self.maha[:, act]
        wbar = self.kernel.weight_means(maha)
        q_value = expected_log_terms(eta, log_pi, self.log_dets[act], wbar, maha)
        self._measured = (act, pis, eta)
        return _two_part_length(log_pi, q_value, self.m, self.n)

    def freeze(self) -> tuple:
        """Validated model, responsibilities and weights of the last measured state.

        Called before any further sweep, so the cached distances are still
        those of the measured state.
        """
        act, pis, eta = self._measured
        comps = tuple(GaussianComponent(self.means[k], self.covs[k]) for k in act)
        model = MixtureModel(comps, pis, self.shape)
        resp = Responsibilities(eta)
        return model, resp, self.kernel.record(self.maha[:, act], resp.matrix)


def select_model(
    data,
    config: MmlConfig,
    weights=None,
    covariance_shape=CovarianceShape.FULL,
    seed=None,
    restarts: int = 10,
) -> FitReport:
    """Search component counts from ``k_high`` down to ``k_low``.

    The search starts from the best of ``restarts`` k-means clusterings
    with ``k_high`` clusters.  ``weights`` takes the forms the fits take:
    an ``(alpha, beta)`` tuple in random mode, a vector in fixed mode, or a
    ready :class:`WeightState`; ``None`` means :func:`default_weights` with
    its kNN kernel defaults.  The report's objective trace holds the message
    length after every sweep; the returned model is the shortest checkpoint.
    """
    data = as_dataset(data)
    shape = CovarianceShape(covariance_shape)
    # Weights are checked before the k-means restarts run.
    if weights is None:
        weights = default_weights(data, config.weight_mode)
    regime = em_weighted._regime if config.weight_mode == WeightMode.RANDOM else em_fixed._regime
    _, kernel = regime(data, weights)
    labels, _ = kmeans(data, config.k_high, restarts=restarts, seed=seed)
    engine = _SelectionEngine(data, config, kernel, model_from_labels(data, labels, shape))
    best = None  # (model, responsibilities, weights) of the shortest checkpoint
    best_length = np.inf
    trace: list[float] = []
    kplus_hist: list[int] = []
    checkpoint_lengths: list[float] = []
    ann_log: list[AnnihilationEvent] = []
    converged = False
    len_prev = None
    # One exit per stop cause: the budget, all components annihilated, k_low reached.
    while len(trace) < config.max_outer_iter:
        try:
            engine.sweep(len(trace), ann_log)
        except AllAnnihilated:
            if best is None:
                raise
            break
        current = engine.measure()
        trace.append(current)
        kplus_hist.append(len(engine.active))
        if len_prev is None or not abs(current - len_prev) < config.epsilon * max(abs(len_prev), 1e-300):
            len_prev = current
            continue
        checkpoint_lengths.append(current)
        if current < best_length:
            best_length = current
            best = engine.freeze()
        if len(engine.active) <= config.k_low:
            converged = True
            break
        act = np.array(engine.active)
        k_star = int(act[int(np.argmin(engine.pis[act]))])
        ann_log.append(AnnihilationEvent(len(trace), k_star, float(engine.pis[k_star])))
        engine.drop(k_star)
        len_prev = None

    if best is None:
        # Budget ran out before any stage converged; report the current state.
        best_length = engine.measure()
        best = engine.freeze()
        checkpoint_lengths.append(best_length)

    model, responsibilities, weight_state = best
    return FitReport(
        objective_trace=tuple(trace),
        final_model=model,
        final_responsibilities=responsibilities,
        final_weights=weight_state,
        iterations=len(trace),
        converged=converged,
        annihilation_log=tuple(ann_log),
        kplus_history=tuple(kplus_hist),
        checkpoint_lengths=tuple(checkpoint_lengths),
        best_length=best_length,
    )
