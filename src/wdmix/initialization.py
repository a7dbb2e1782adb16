"""Starting points for the EM engines.

K-means supplies the initial clustering, a moment-matching step turns the
clustering into mixture parameters, and a nearest-neighbour kernel sum turns
local point density into per-point weights and gamma weight priors.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CovarianceShape,
    GaussianComponent,
    MixtureModel,
    WeightMode,
    as_dataset,
    as_integer,
    cluster_labels,
    data_scale,
    floored_covariance,
)
from .densities import _pairwise_sum
from .errors import EmptyCluster, KTooLarge, NonPositiveArgument, NonPositiveWeight, QTooLarge

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
_LLOYD_MAX_ITER = 100  # Lloyd's iterations per k-means restart
_LLOYD_TOL = 1e-9  # largest center move that counts as converged
# Above this many points the k-means restarts run on a sample of this size and
# only the best restart's centers go through Lloyd on all points.
_KMEANS_SAMPLE = 8_192
# The kNN weights query the tree this many rows at a time, in leaf order.
_KNN_BLOCK = 8_192


def _plus_plus_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centers by squared-distance sampling."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    closest = _sq_distances_to(points, centers[0])
    for j in range(1, k):
        total = float(closest.sum())
        if total > 0.0:
            probs = closest / total
            idx = int(rng.choice(n, p=probs))
        else:
            idx = int(rng.integers(n))
        centers[j] = points[idx]
        closest = np.minimum(closest, _sq_distances_to(points, centers[j]))
    return centers


def _sq_distances_to(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """(n,) sums of squared differences, in the order of ``np.sum(..., axis=1)`` on C-ordered points."""
    diff = points - center
    diff *= diff
    return _pairwise_sum(list(diff.T))


def _augmented(points: np.ndarray) -> np.ndarray:
    """(n, d + 2) rows [x, ||x||^2, 1], the left factor of :func:`_sq_distances`."""
    return np.column_stack([points, np.sum(points**2, axis=1), np.ones(points.shape[0])])


def _sq_distances(aug: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared distances ||x||^2 - 2 x.c + ||c||^2 as one product with rows [-2c, 1, ||c||^2].

    OpenBLAS's gemm adds each entry's d + 2 products in column order: the bits
    of (x.(-2c) + ||x||^2) + ||c||^2.  At k = 1 (a matrix-vector product) the
    last bits may differ, but one center admits only one labelling.
    """
    coef = np.column_stack([-2.0 * centers, np.ones(len(centers)), np.sum(centers**2, axis=1)])
    return aug @ coef.T


def _lloyd(aug: np.ndarray, centers: np.ndarray):
    """Labels, centers and inertia of Lloyd's iterations from ``centers`` over :func:`_augmented` points."""
    k, d = centers.shape
    points = aug[:, :d]
    columns = np.ascontiguousarray(points.T)
    rows = np.arange(aug.shape[0])
    for _ in range(_LLOYD_MAX_ITER):
        dists = _sq_distances(aug, centers)
        labels = np.argmin(dists, axis=1)
        # Each center's members are summed one by one in point order.
        counts = np.bincount(labels, minlength=k)
        new_centers = np.stack([np.bincount(labels, weights=c, minlength=k) for c in columns], axis=1)
        new_centers /= np.maximum(counts, 1)[:, None]
        empty = counts == 0
        if np.any(empty):
            # Re-seed starved centers at the point worst served by its own.
            new_centers[empty] = points[int(np.argmax(dists[rows, labels]))]
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift <= _LLOYD_TOL:
            break
    dists = _sq_distances(aug, centers)
    labels = np.argmin(dists, axis=1)
    inertia = float(np.sum(np.maximum(dists[rows, labels], 0.0)))
    return labels, centers, inertia


def kmeans(data, k: int, restarts: int = 10, seed=None):
    """Best-of-``restarts`` Lloyd's algorithm with k-means++ seeding.

    Returns ``(labels, centers)`` of the restart with the lowest
    within-cluster sum of squares.  Deterministic for a given seed.  Above
    ``_KMEANS_SAMPLE`` (8,192) points, the generator first draws that many
    points without replacement, kept in point order; every restart seeds and
    runs Lloyd on that sample, and the best restart's centers then go
    through Lloyd once more on all points (Bradley & Fayyad 1998).  At or
    below that size every restart runs on all points.  Raises KTooLarge
    unless 1 <= k <= n, NonPositiveArgument unless ``restarts`` >= 1, and
    EmptyCluster when the returned labelling leaves a cluster empty (as
    rounding can at extreme offsets), naming the distinct-point count when it
    is below k, so the count never drops silently.
    """
    points = as_dataset(data).points
    n = points.shape[0]
    k, restarts = as_integer(k, "k", KTooLarge), as_integer(restarts, "restarts", NonPositiveArgument)
    if k < 1 or k > n:
        raise KTooLarge(f"cannot place {k} clusters on {n} points")
    if restarts < 1:
        raise NonPositiveArgument(f"restarts must be at least 1, got {restarts}")
    rng = np.random.default_rng(seed)
    aug = _augmented(points)
    subset = slice(None) if n <= _KMEANS_SAMPLE else np.sort(rng.choice(n, size=_KMEANS_SAMPLE, replace=False))
    sample, sample_aug = points[subset], aug[subset]
    best = None
    for _ in range(restarts):
        labels, centers, inertia = _lloyd(sample_aug, _plus_plus_seed(sample, k, rng))
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    if n > _KMEANS_SAMPLE:
        best = _lloyd(aug, best[1])
    empty = np.flatnonzero(np.bincount(best[0], minlength=k) == 0)
    if empty.size:
        distinct = np.unique(points, axis=0).shape[0]
        cause = f": the data hold {distinct} distinct point{'s' * (distinct > 1)}" if distinct < k else ""
        raise EmptyCluster(f"k-means left cluster {int(empty[0])} of {k} empty{cause}")
    return best[0], best[1]


def model_from_labels(data, labels, covariance_shape=CovarianceShape.FULL) -> MixtureModel:
    """Moment-match a mixture to a hard clustering.

    Proportions are cluster fractions, means are cluster means, covariances
    are within-cluster maximum-likelihood covariances with the diagonal
    ridge applied.  Labels are checked by :func:`core.cluster_labels`, and
    a label in their range with no members raises EmptyCluster.
    """
    points = as_dataset(data).points
    n = points.shape[0]
    labels = cluster_labels(labels, n)
    k = int(labels.max()) + 1
    global_scale = data_scale(points)
    comps, props = [], []
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
        comps.append(GaussianComponent(mu, floored_covariance(cov, global_scale)))
        props.append(members.shape[0] / n)
    return MixtureModel(tuple(comps), np.asarray(props), shape)


def kernel_sums(d2: np.ndarray, bandwidth: float) -> np.ndarray:
    """Row sums of ``exp(-d2 / bandwidth)``, clamped to a tiny positive floor.

    The terms overwrite ``d2`` (x / -b is -x / b bit for bit), so no copy is made.
    """
    d2 /= -bandwidth
    np.exp(d2, out=d2)
    return np.maximum(np.sum(d2, axis=1), _WEIGHT_FLOOR)


def knn_kernel_weights(data, q: int = 20, bandwidth: float = 100.0) -> np.ndarray:
    """Local-density weights from a truncated Gaussian kernel sum.

    For each point the squared Euclidean distances to its ``q`` nearest
    neighbours (the point itself excluded) enter
    ``sum_j exp(-d2_ij / bandwidth)``, so dense regions score close to ``q``
    and isolated points close to zero.  Results are clamped to a tiny
    positive floor.  A sliding-midpoint k-d tree finds the neighbours,
    queried on every core in the tree's leaf order, so that consecutive
    queries visit the same leaves.  The leaf order is walked in blocks of
    ``_KNN_BLOCK`` (8,192) rows, and each block's sums go straight into the
    result, so the working memory is O(n + 8,192 q) rather than O(n q).
    """
    points = as_dataset(data).points
    n = points.shape[0]
    if as_integer(q, "q", QTooLarge) < 1 or q >= n:
        raise QTooLarge(f"q={q} needs 1 <= q <= n-1 with n={n}")
    if not bandwidth > 0.0:
        raise NonPositiveWeight("bandwidth must be positive")
    from scipy.spatial import cKDTree  # only this path loads scipy.spatial and scipy.sparse

    # Each pair's distance is computed the same way whatever the tree's shape
    # and whichever thread finds it, and eps=0 keeps the search exact.
    tree = cKDTree(points, leafsize=32, balanced_tree=False)
    weights = np.empty(n)
    for start in range(0, n, _KNN_BLOCK):
        rows = tree.indices[start : start + _KNN_BLOCK]
        found, _ = tree.query(tree.data[rows], k=q + 1, workers=-1)
        d2 = found[:, 1:]
        d2 *= d2
        weights[rows] = kernel_sums(d2, bandwidth)
    return weights


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


def default_weights(data, mode: WeightMode, q: int = 20, bandwidth: float = 100.0):
    """A weighting regime's default weights, from :func:`knn_kernel_weights` with q capped at n-1.

    Fixed weights are the kernel weights themselves; random weights are
    their :func:`pipeline_gamma_priors` (alpha, beta) pair.
    """
    data = as_dataset(data)
    w = knn_kernel_weights(data, q=min(q, data.n - 1), bandwidth=bandwidth)
    return pipeline_gamma_priors(w) if mode == WeightMode.RANDOM else w
