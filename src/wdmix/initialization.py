"""Starting points for the EM engines.

K-means supplies the initial clustering, a moment-matching step turns the
clustering into mixture parameters, and a nearest-neighbour kernel sum turns
local point density into per-point weights and gamma weight priors.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .core import (
    CovarianceShape,
    Dataset,
    GaussianComponent,
    MixtureModel,
    data_scale,
    floored_covariance,
)
from .errors import EmptyCluster, KTooLarge, NonPositiveWeight, QTooLarge

# Above this size pairwise brute force gives way to a k-d tree.
_BRUTE_FORCE_LIMIT = 20_000
# Kernel sums are clamped away from zero so downstream gamma priors stay valid
# even for points isolated far beyond the kernel bandwidth.
_WEIGHT_FLOOR = 1e-12
# The unit-variance gamma parameterisation (alpha=w^2, beta=w) degenerates as
# w -> 0: a point whose prior weight is nearly zero but that happens to sit
# close to a broad component's mean gets a posterior weight mean of order 1/w.
# Pipelines therefore clamp weights below at this value before building
# priors; the cap bounds any posterior mean by (PRIOR_WEIGHT_FLOOR^2 + d/2) /
# PRIOR_WEIGHT_FLOOR, a few units at most.
PRIOR_WEIGHT_FLOOR = 0.25


def _as_points(data) -> np.ndarray:
    if isinstance(data, Dataset):
        return data.points
    return np.asarray(data, dtype=np.float64)


def _plus_plus_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centers by squared-distance sampling."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    closest = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(closest.sum())
        if total > 0.0:
            probs = closest / total
            idx = int(rng.choice(n, p=probs))
        else:
            idx = int(rng.integers(n))
        centers[j] = points[idx]
        closest = np.minimum(closest, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iter: int, tol: float):
    n, d = points.shape
    k = centers.shape[0]
    centers = centers.copy()
    sq_norms = np.sum(points**2, axis=1)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        dists = sq_norms[:, None] - 2.0 * points @ centers.T + np.sum(centers**2, axis=1)[None, :]
        labels = np.argmin(dists, axis=1)
        new_centers = np.empty_like(centers)
        for j in range(k):
            members = labels == j
            if not np.any(members):
                # Re-seed a starved center at the point worst served by its own.
                worst = int(np.argmax(np.min(dists, axis=1)))
                new_centers[j] = points[worst]
            else:
                new_centers[j] = points[members].mean(axis=0)
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift <= tol:
            break
    dists = sq_norms[:, None] - 2.0 * points @ centers.T + np.sum(centers**2, axis=1)[None, :]
    labels = np.argmin(dists, axis=1)
    inertia = float(np.sum(np.maximum(np.min(dists, axis=1), 0.0)))
    return labels, centers, inertia


def kmeans(data, k: int, restarts: int = 10, seed=None, max_iter: int = 100, tol: float = 1e-9):
    """Best-of-``restarts`` Lloyd's algorithm with k-means++ seeding.

    Returns ``(labels, centers)`` of the restart with the lowest
    within-cluster sum of squares.  Deterministic for a given seed.
    """
    points = _as_points(data)
    n = points.shape[0]
    if k < 1 or k > n:
        raise KTooLarge(f"cannot place {k} clusters on {n} points")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(max(1, restarts)):
        centers0 = _plus_plus_seed(points, k, rng)
        labels, centers, inertia = _lloyd(points, centers0, max_iter, tol)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    return best[0], best[1]


def model_from_labels(data, labels, covariance_shape=CovarianceShape.FULL) -> MixtureModel:
    """Moment-match a mixture to a hard clustering.

    Proportions are cluster fractions, means are cluster means, covariances
    are within-cluster maximum-likelihood covariances with the diagonal
    ridge applied.  Raises EmptyCluster when a label in the range has no
    members.
    """
    points = _as_points(data)
    labels = np.asarray(labels, dtype=np.int64)
    n = points.shape[0]
    k = int(labels.max()) + 1
    global_scale = data_scale(points)
    means, covs, props = [], [], []
    shape = CovarianceShape(covariance_shape)
    for j in range(k):
        members = points[labels == j]
        if members.shape[0] == 0:
            raise EmptyCluster(f"cluster {j} has no members")
        mu = members.mean(axis=0)
        diff = members - mu
        if shape == CovarianceShape.DIAGONAL:
            cov = np.mean(diff * diff, axis=0)
        else:
            cov = diff.T @ diff / members.shape[0]
        means.append(mu)
        covs.append(floored_covariance(cov, global_scale))
        props.append(members.shape[0] / n)
    comps = tuple(GaussianComponent(m, c) for m, c in zip(means, covs))
    return MixtureModel(comps, np.asarray(props), shape)


def knn_kernel_weights(data, q: int = 20, bandwidth: float = 100.0) -> np.ndarray:
    """Local-density weights from a truncated Gaussian kernel sum.

    For each point the squared Euclidean distances to its ``q`` nearest
    neighbours (the point itself excluded) enter ``sum_j exp(-d2_ij /
    bandwidth)``, so dense regions score close to ``q`` and isolated points
    close to zero.  Results are clamped to a tiny positive floor.
    """
    points = _as_points(data)
    n = points.shape[0]
    if q < 1 or q >= n:
        raise QTooLarge(f"q={q} needs 1 <= q <= n-1 with n={n}")
    if bandwidth <= 0.0:
        raise NonPositiveWeight("bandwidth must be positive")
    if n <= _BRUTE_FORCE_LIMIT:
        weights = np.empty(n)
        sq_norms = np.sum(points**2, axis=1)
        chunk = max(1, min(n, 1_000_000 // max(n, 1) + 1))
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            block = points[start:stop]
            d2 = (
                sq_norms[start:stop, None]
                - 2.0 * block @ points.T
                + sq_norms[None, :]
            )
            np.maximum(d2, 0.0, out=d2)
            rows = np.arange(start, stop)
            d2[rows - start, rows] = np.inf  # exclude self
            nearest = np.partition(d2, q - 1, axis=1)[:, :q]
            weights[start:stop] = np.sum(np.exp(-nearest / bandwidth), axis=1)
    else:
        tree = cKDTree(points)
        dists, _ = tree.query(points, k=q + 1)
        weights = np.sum(np.exp(-(dists[:, 1:] ** 2) / bandwidth), axis=1)
    return np.maximum(weights, _WEIGHT_FLOOR)


def gamma_priors_from_weights(weights) -> tuple[np.ndarray, np.ndarray]:
    """Gamma priors with mean w_i and unit variance: alpha = w^2, beta = w."""
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise NonPositiveWeight("weights must be positive and finite")
    return w * w, w.copy()


def pipeline_gamma_priors(weights) -> tuple[np.ndarray, np.ndarray]:
    """Gamma priors from kernel weights clamped at ``PRIOR_WEIGHT_FLOOR``.

    This is the prior construction the fitting pipelines use; see the floor
    constant for why raw near-zero weights cannot feed the parameterisation
    directly.
    """
    w = np.asarray(weights, dtype=np.float64)
    return gamma_priors_from_weights(np.maximum(w, PRIOR_WEIGHT_FLOOR))
