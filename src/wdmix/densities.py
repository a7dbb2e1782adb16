"""Log-space density primitives.

Everything here returns log densities.  Gaussian evaluations go through the
component's cached Cholesky factor; normalising constants use the cached
log-determinant, so no determinant or inverse is ever formed explicitly.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtrtrs
from scipy.special import gammaln

from .core import GaussianComponent, MixtureModel, WeightMode, WeightState, _broadcast
from .errors import (
    DegenerateRow,
    DimensionMismatch,
    NonPositiveDefinite,
    NonPositiveShape,
    NonPositiveWeight,
)

_LOG_2PI = float(np.log(2.0 * np.pi))


def mahalanobis_sq(x, component: GaussianComponent):
    """Squared Mahalanobis distance of one point or a stack of points.

    Accepts ``x`` of shape (d,) or (n, d); returns a scalar or an (n,)
    array accordingly.
    """
    pts = np.asarray(x, dtype=np.float64)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != component.d:
        raise DimensionMismatch(f"points of dimension {pts.shape[-1]}, component has d={component.d}")
    out = squared_distances(pts, component.mean, component.factor)
    return float(out[0]) if single else out


def squared_distances(points: np.ndarray, mean: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """(n,) squared Mahalanobis distances of (n, d) points from ``mean``.

    ``factor`` is the lower Cholesky factor of a full covariance, or the
    (d,) variance vector of a diagonal one.
    """
    return centred_distances(_broadcast(np.subtract, points, mean[None, :]), factor)


def centred_distances(diff: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """:func:`squared_distances` of C-ordered centred points ``points - mean``.

    The triangular solve overwrites ``diff`` in place.
    """
    if factor.ndim == 1:
        return (diff * diff / factor).sum(axis=1)
    z, info = dtrtrs(factor, diff.T, lower=1, overwrite_b=1)
    if info != 0:
        raise NonPositiveDefinite(f"triangular solve failed (LAPACK info {info})")
    z *= z
    return _pairwise_sum(list(z))


def _pairwise_sum(terms: list) -> np.ndarray:
    """Elementwise sum of equal-length vectors, in the order ``np.sum`` adds a short axis.

    Over the columns of a C-ordered (n, m) matrix this is ``np.sum(matrix,
    axis=1)`` bit for bit, as sweeps over whole vectors: below 8 terms in
    sequence; up to 128 as eight interleaved partial sums r0..r7, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest in sequence; above
    128, two halves split at a multiple of 8.  NumPy starts from +0.0 and this
    from the first term, so the two differ only where that term is -0.0,
    which squares and exponentials never are.  A test checks the order.
    """
    m = len(terms)
    if m > 128:
        half = m // 2 - (m // 2) % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    if m < 8:
        out, tail = (terms[0] + terms[1], 2) if m > 1 else (terms[0].copy(), 1)
    else:
        r, tail = terms[:8], m - m % 8
        for i in range(8, tail, 8):
            r = [a + b for a, b in zip(r, terms[i : i + 8])]
        out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for term in terms[tail:]:
        out += term
    return out


# ---------------------------------------------------------------------------
# Weighting regimes: every density in the package comes from one of these.
# Per-point arrays are used as given and must broadcast against the squared
# Mahalanobis distances, e.g. (n, 1) against an (n, K) matrix.  ``record``
# turns a fit's final distances and responsibilities into its reported weights.


class FixedWeights:
    """Known precision weights: density N(x; mu, Sigma / w_i), M-step weight w_i."""

    def __init__(self, w, d: int):
        self.w = w
        self.base = 0.5 * d * np.log(w) - 0.5 * d * _LOG_2PI

    def log_density(self, maha, log_dets):
        return self.base - 0.5 * log_dets - 0.5 * self.w * maha

    def weight_means(self, maha):
        return self.w

    def record(self, maha, eta) -> WeightState:
        return WeightState.fixed(self.w[:, 0])


class GammaWeights:
    """Gamma weights w_i ~ Gamma(alpha_i, beta_i): Pearson VII density, M-step weight a_i / b_ik.

    a_i = alpha_i + d/2 and b_ik = beta_i + Mah^2_ik / 2 are the posterior
    shape and rates.  :meth:`with_rates` swaps in other rates (such as
    per-component ones) without recomputing the log-gamma ratio.
    """

    def __init__(self, alpha, beta, d: int):
        self.alpha = alpha
        self.half = 0.5 * d
        self.post_a = alpha + self.half
        self.log_ratio = gammaln(self.post_a) - gammaln(alpha)
        self._set_rates(beta)

    def _set_rates(self, beta) -> None:
        self.beta = beta
        self.rate_norm = self.half * (_LOG_2PI + np.log(beta))

    def with_rates(self, beta) -> "GammaWeights":
        out = object.__new__(GammaWeights)
        out.alpha, out.half, out.post_a, out.log_ratio = self.alpha, self.half, self.post_a, self.log_ratio
        out._set_rates(beta)
        return out

    def log_density(self, maha, log_dets):
        tail = self.post_a * np.log1p(maha / (2.0 * self.beta))
        return self.log_ratio - 0.5 * log_dets - self.rate_norm - tail

    def posterior_rates(self, maha):
        return self.beta + 0.5 * maha

    def weight_means(self, maha):
        return self.post_a / self.posterior_rates(maha)

    def posterior(self, maha) -> WeightState:
        """Priors plus the gamma posterior (a_i, b_ik) given (n, K) squared distances."""
        return WeightState(
            mode=WeightMode.RANDOM,
            prior_alpha=self.alpha[:, 0],
            prior_beta=self.beta[:, 0],
            post_a=self.post_a[:, 0],
            post_b=self.posterior_rates(maha),
        )

    def record(self, maha, eta) -> WeightState:
        posterior = self.posterior(maha)
        return posterior.with_marginal(posterior.averaged_means(eta))


# ---------------------------------------------------------------------------
# Densities of one point or a stack of points under one component.


def log_gaussian_scaled(x, component: GaussianComponent, w):
    """log N(x; mu, Sigma / w) for positive precision scale(s) w.

    ``w`` may be a scalar or one value per point.  The scale multiplies the
    precision, so larger w means a tighter density around the mean.
    """
    w_arr = np.asarray(w, dtype=np.float64)
    if np.any(w_arr <= 0.0) or not np.all(np.isfinite(w_arr)):
        raise NonPositiveWeight("precision scales must be positive and finite")
    maha = mahalanobis_sq(x, component)
    out = FixedWeights(w_arr, component.d).log_density(maha, component.log_det)
    return float(out) if np.isscalar(maha) and w_arr.ndim == 0 else out


def log_gamma_pdf(w, alpha, beta):
    """Log density of the gamma distribution with shape alpha and rate beta.

    Parameterised so the mean is ``alpha / beta`` and the variance
    ``alpha / beta**2``.
    """
    w_arr = np.asarray(w, dtype=np.float64)
    a = np.asarray(alpha, dtype=np.float64)
    b = np.asarray(beta, dtype=np.float64)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise NonPositiveShape("gamma shape and rate must be positive")
    if np.any(w_arr <= 0.0):
        raise NonPositiveWeight("gamma density argument must be positive")
    out = a * np.log(b) - gammaln(a) + (a - 1.0) * np.log(w_arr) - b * w_arr
    return float(out) if out.ndim == 0 else out


def log_pearson7(x, component: GaussianComponent, alpha, beta):
    """Log Pearson type VII density.

    This is the marginal of N(x; mu, Sigma / w) with w ~ Gamma(alpha, beta):
    a Student-like elliptical density whose tail weight grows as alpha
    shrinks.  ``alpha`` and ``beta`` may be scalars or one value per point.
    """
    a = np.asarray(alpha, dtype=np.float64)
    b = np.asarray(beta, dtype=np.float64)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise NonPositiveShape("Pearson VII shape and rate must be positive")
    maha = mahalanobis_sq(x, component)
    out = GammaWeights(a, b, component.d).log_density(maha, component.log_det)
    if np.isscalar(maha) and a.ndim == 0 and b.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Matrix forms: one column per mixture component.


def mahalanobis_matrix(points: np.ndarray, components) -> np.ndarray:
    """(n, K) squared Mahalanobis distances of (n, d) float points against each component."""
    if any(comp.d != points.shape[1] for comp in components):
        raise DimensionMismatch(f"points of dimension {points.shape[1]} do not match the components")
    cols = [squared_distances(points, comp.mean, comp.factor) for comp in components]
    return np.column_stack(cols) if cols else np.empty((points.shape[0], 0))


def scaled_gaussian_log_matrix(points: np.ndarray, components, w) -> np.ndarray:
    """(n, K) matrix of log N(x_i; mu_k, Sigma_k / w_i), one column per component."""
    return np.column_stack([log_gaussian_scaled(points, comp, w) for comp in components])


def pearson7_log_matrix(points: np.ndarray, components, alpha, beta) -> np.ndarray:
    """(n, K) matrix of log Pearson VII densities, one column per component.

    ``alpha`` is a scalar or (n,) prior shape; ``beta`` may be scalar, (n,),
    or a full (n, K) matrix of per-point-per-component rates.
    """
    b = np.asarray(beta, dtype=np.float64)
    rates = b.T if b.ndim == 2 else [b] * len(components)
    return np.column_stack([log_pearson7(points, comp, alpha, r) for comp, r in zip(components, rates)])


def normalize_log_responsibilities(log_weighted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalise log numerators into a responsibility matrix.

    Returns the (n, K) responsibilities and the (n,) row log-normalisers
    log sum_k exp(log_weighted[i, k]); with log pi_k + log density in the
    numerators the latter are the points' log-likelihoods.  Raises
    DegenerateRow when a point has zero density under every component.
    """
    row_max = log_weighted[:, 0].copy()
    for column in log_weighted.T[1:]:
        np.maximum(row_max, column, out=row_max)
    finite = np.isfinite(row_max)
    if not np.all(finite):
        bad = int(np.argmin(finite))
        raise DegenerateRow(f"point {bad} has no component with positive density")
    shifted = log_weighted - row_max[:, None]
    np.exp(shifted, out=shifted)
    norm = np.log(_pairwise_sum(list(shifted.T)))
    norm += row_max
    eta = log_weighted - norm[:, None]
    np.exp(eta, out=eta)
    # Guard against rounding pushing a row sum a hair away from 1.
    eta /= _pairwise_sum(list(eta.T))[:, None]
    return eta, norm


def expected_log_terms(eta, log_pi, log_dets, wbar, maha) -> float:
    """sum_ik eta_ik (log pi_k - 0.5 log|Sigma_k| - 0.5 wbar_ik Mah^2_ik).

    The parameter-dependent part of the expected complete-data objective,
    over the columns passed in.  ``wbar`` broadcasts against ``maha``: (n, 1)
    for fixed weights, (n, K) for posterior weight means.
    """
    return float((eta * (log_pi[None, :] - 0.5 * log_dets[None, :] - 0.5 * wbar * maha)).sum())


def log_mixture_density(points: np.ndarray, model: MixtureModel, log_density_matrix: np.ndarray) -> np.ndarray:
    """(n,) log of sum_k pi_k * exp(log_density_matrix[:, k]); DegenerateRow if that is -inf."""
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.proportions)
    return normalize_log_responsibilities(log_density_matrix + log_pi[None, :])[1]
