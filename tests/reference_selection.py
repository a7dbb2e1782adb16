"""Full-matrix message-length selection used as a test oracle.

This is the straightforward form of the component-wise selection search:
after every single-component update the whole (n, K+) log-density matrix is
rebuilt and renormalised, every updated component is frozen into a validated
:class:`GaussianComponent`, and every sweep's message length is measured by
:func:`wdmix.message_length` on freshly built value objects.  The package's
engine caches columns and builds value objects only at checkpoints; it must
reproduce this oracle bit for bit.  The row normaliser, the covariance ridge
and the triangular solve are written out here in their plain NumPy/SciPy
form instead of being imported, so the package's leaner versions of them
are checked too.

:class:`MatrixRateEngine` is the package's engine with its carried gamma
rates stored as one (n, K) matrix, the form that its per-component carried
kernels replace; the two are compared bit for bit, the reference factoring
through LAPACK (:func:`lapack_factor`).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaln

from wdmix import (
    AnnihilationEvent,
    CovarianceShape,
    FitReport,
    GaussianComponent,
    MixtureModel,
    Responsibilities,
    WeightMode,
    WeightState,
    kmeans,
    knn_kernel_weights,
    message_length,
    model_from_labels,
    pipeline_gamma_priors,
    truncated_proportions,
)
from wdmix.core import COVARIANCE_FLOOR_REL
from wdmix.errors import AllAnnihilated
from wdmix.model_selection import _SelectionEngine

_LOG_2PI = float(np.log(2.0 * np.pi))


def _mahalanobis(points, comp):
    diff = points - comp.mean
    if comp.is_diagonal:
        return np.sum(diff * diff / comp.covariance, axis=1)
    z = solve_triangular(comp.chol, diff.T, lower=True, check_finite=False)
    return np.sum(z * z, axis=0)


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


def _normalize(log_weighted):
    shift = np.max(log_weighted, axis=1, keepdims=True)
    assert np.all(np.isfinite(shift))
    summed = np.sum(np.exp(log_weighted - shift), axis=1, keepdims=True)
    norm = np.squeeze(np.log(summed) + shift, axis=1)
    eta = np.exp(log_weighted - norm[:, None])
    eta /= eta.sum(axis=1, keepdims=True)
    return eta


def lapack_factor(cov):
    """Cholesky factor and log-determinant through LAPACK at every d, as the sweep factored before
    its closed form at d = 2; a (d,) variance vector gives its standard deviations."""
    if cov.ndim == 1:
        return np.sqrt(cov), float(np.log(cov).sum())
    chol = np.linalg.cholesky(cov)
    return chol, 2.0 * float(np.log(np.diagonal(chol)).sum())


class MatrixRateEngine(_SelectionEngine):
    """The package's engine with its carried rates held as one (n, K) matrix.

    Column j of ``ez_b`` holds beta0 + Mah^2_j / 2 as of the latest
    weight-posterior step, and every column recomputation builds its
    carried kernel from that column afresh.  The package keeps one carried
    kernel per component instead; both must give the same bits.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.carried = False
        self.ez_b = np.empty((self.n, self.k_total), order="F")

    def _column(self, j):
        kernel = self.kernel
        if self.carried:
            kernel = self.carried_kernel.with_rates(self.ez_b[:, j : j + 1])
        return kernel.log_density(self.maha[:, j : j + 1], self.log_dets[j])

    def _carry_rates(self):
        self.carried = True
        for j in self.refreshed.intersection(self.active):
            self.ez_b[:, j : j + 1] = self.kernel.posterior_rates(self.maha[:, j : j + 1])
            self.dirty.add(j)
        self.refreshed.clear()


class _FullMatrixEngine:
    def __init__(self, data, config, weights, shape, seed, restarts, q, bandwidth):
        X = data.points
        self.data, self.cfg, self.X = data, config, X
        self.n, self.d = X.shape
        self.half = 0.5 * self.d
        self.shape = CovarianceShape(shape)
        labels, _ = kmeans(X, config.k_high, restarts=restarts, seed=seed)
        initial = model_from_labels(X, labels, self.shape)
        self.k_total = initial.n_components
        self.m = initial.free_params_per_component
        self.comps = list(initial.components)
        self.pis = np.array(initial.proportions, dtype=np.float64)
        self.active = [k for k in range(self.k_total) if self.pis[k] > 0.0]
        self.global_scale = float(np.trace(np.atleast_2d(np.cov(X.T, bias=True)))) / self.d
        self.maha = np.empty((self.n, self.k_total))
        self.log_dets = np.empty(self.k_total)
        for k in range(self.k_total):
            self._refresh(k)
        if config.weight_mode == WeightMode.RANDOM:
            if weights is None:
                weights = pipeline_gamma_priors(
                    knn_kernel_weights(X, q=min(q, self.n - 1), bandwidth=bandwidth)
                )
            self.prior_state = WeightState.random_prior(*weights)
            self.alpha0 = self.prior_state.prior_alpha
            self.beta0 = self.prior_state.prior_beta
            self.post_a = self.alpha0 + self.half
            self.gl_prior = gammaln(self.alpha0 + self.half) - gammaln(self.alpha0)
            self.gl_post = gammaln(self.post_a + self.half) - gammaln(self.post_a)
            self.ez_b = np.tile(self.beta0[:, None], (1, self.k_total))
            self.carried_ready = False
        else:
            if weights is None:
                weights = knn_kernel_weights(X, q=min(q, self.n - 1), bandwidth=bandwidth)
            self.fixed_w = np.asarray(weights, dtype=np.float64)
            self.log_w_half_d = 0.5 * self.d * np.log(self.fixed_w)

    def _refresh(self, k):
        self.maha[:, k] = _mahalanobis(self.X, self.comps[k])
        self.log_dets[k] = self.comps[k].log_det

    def _eta(self, act):
        maha = self.maha[:, act]
        log_dets = self.log_dets[act]
        if self.cfg.weight_mode == WeightMode.FIXED:
            lp = (
                self.log_w_half_d[:, None]
                - self.half * _LOG_2PI
                - 0.5 * log_dets[None, :]
                - 0.5 * self.fixed_w[:, None] * maha
            )
        else:
            if self.cfg.assignment_rates == "carried" and self.carried_ready:
                aa, gl, bb = self.post_a, self.gl_post, self.ez_b[:, act]
            else:
                aa, gl = self.alpha0, self.gl_prior
                bb = np.broadcast_to(self.beta0[:, None], maha.shape)
            lp = (
                gl[:, None]
                - 0.5 * log_dets[None, :]
                - self.half * (_LOG_2PI + np.log(bb))
                - (aa[:, None] + self.half) * np.log1p(maha / (2.0 * bb))
            )
        log_pi = np.log(self.pis[act])
        return _normalize(lp + log_pi[None, :])

    def sweep(self, sweep_index, log):
        for k in list(self.active):
            act = np.array(self.active)
            eta = self._eta(act)
            if self.cfg.weight_mode == WeightMode.RANDOM:
                b_cur = self.beta0[:, None] + 0.5 * self.maha[:, act]
                wbar = self.post_a[:, None] / b_cur
                if self.cfg.assignment_rates == "carried":
                    self.ez_b[:, act] = b_cur
                    self.carried_ready = True
            else:
                wbar = np.broadcast_to(self.fixed_w[:, None], eta.shape)
            sums = eta.sum(axis=0)
            new_pis = truncated_proportions(sums, self.m)
            pos = self.active.index(k)
            old_pi = float(self.pis[k])
            self.pis[k] = new_pis[pos]
            if self.pis[k] > 0.0:
                omega = eta[:, pos] * wbar[:, pos]
                mu = omega @ self.X / omega.sum()
                diff = self.X - mu
                if self.shape == CovarianceShape.DIAGONAL:
                    cov = omega @ (diff * diff) / sums[pos]
                else:
                    cov = (diff * omega[:, None]).T @ diff / sums[pos]
                self.comps[k] = GaussianComponent(mu, _floored(cov, self.global_scale))
                self._refresh(k)
            else:
                log.append(AnnihilationEvent(sweep_index, k, old_pi))
                self.active.remove(k)
                if not self.active:
                    raise AllAnnihilated("the final surviving component lost support")
            self.renormalize()

    def renormalize(self):
        act = np.array(self.active)
        total = float(self.pis[act].sum())
        mask = np.ones(self.k_total, dtype=bool)
        mask[act] = False
        self.pis[mask] = 0.0
        self.pis[act] /= total

    def measure(self):
        act = np.array(self.active)
        model = MixtureModel(
            tuple(self.comps[k] for k in act), self.pis[act] / self.pis[act].sum(), self.shape
        )
        eta = Responsibilities(self._eta(act))
        if self.cfg.weight_mode == WeightMode.FIXED:
            ws = WeightState.fixed(self.fixed_w)
        else:
            b_cur = self.beta0[:, None] + 0.5 * self.maha[:, act]
            ws = self.prior_state.with_posterior(self.post_a, b_cur)
            ws = ws.with_marginal(np.sum(eta.matrix * ws.post_mean, axis=1))
        return message_length(self.data, model, eta, ws), model, eta, ws


def reference_select_model(
    data, config, weights=None, covariance_shape=CovarianceShape.FULL, seed=None,
    restarts=10, q=20, bandwidth=100.0,
):
    """Selection search with the full-matrix engine; same contract as ``select_model``."""
    engine = _FullMatrixEngine(data, config, weights, covariance_shape, seed, restarts, q, bandwidth)
    best = (np.inf, None, None, None)
    trace, kplus_hist, checkpoints, ann_log = [], [], [], []
    sweeps, converged, stop = 0, True, False
    while len(engine.active) >= config.k_low and not stop:
        len_prev = None
        while True:
            if sweeps >= config.max_outer_iter:
                converged, stop = False, True
                break
            try:
                engine.sweep(sweeps, ann_log)
            except AllAnnihilated:
                if best[1] is None:
                    raise
                converged, stop = False, True
                break
            current, model, eta, ws = engine.measure()
            trace.append(current)
            kplus_hist.append(len(engine.active))
            sweeps += 1
            if len_prev is not None and abs(current - len_prev) < config.epsilon * max(
                abs(len_prev), 1e-300
            ):
                break
            len_prev = current
        if stop:
            break
        checkpoints.append(current)
        if current < best[0]:
            best = (current, model, eta, ws)
        if len(engine.active) > config.k_low:
            act = np.array(engine.active)
            k_star = int(act[int(np.argmin(engine.pis[act]))])
            ann_log.append(AnnihilationEvent(sweeps, k_star, float(engine.pis[k_star])))
            engine.active.remove(k_star)
            engine.renormalize()
        else:
            break
    if best[1] is None:
        best = engine.measure()
        checkpoints.append(best[0])
    return FitReport(
        objective_trace=tuple(trace),
        final_model=best[1],
        final_responsibilities=best[2],
        final_weights=best[3],
        iterations=sweeps,
        converged=converged,
        annihilation_log=tuple(ann_log),
        kplus_history=tuple(kplus_hist),
        checkpoint_lengths=tuple(checkpoints),
        best_length=best[0],
    )
