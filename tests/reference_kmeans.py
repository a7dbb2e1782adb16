"""Masked-mean Lloyd's algorithm used as a test oracle.

This is the straightforward form of k-means: k-means++ seeds from
``np.sum`` row sums, then every iteration builds one boolean mask per center
and averages the masked rows with ``mean``, and the distances are
``||x||^2 - 2 x.c + ||c||^2`` written as one expression.  The package takes
the center sums from grouped ``bincount`` calls and each distance from one
matrix product over the points augmented with their squared norms; for
d >= 2 it must reproduce this oracle bit for bit.  Above ``SAMPLE`` points
the restarts run on a sorted sample drawn without replacement, and the best
restart's centers then go through one Lloyd run on all points.  The seeding,
iteration limit, tolerance and sample size are written out here instead of
being imported, so a change to the package's is caught too.
"""

from __future__ import annotations

import numpy as np

from wdmix.core import as_dataset

MAX_ITER = 100
TOL = 1e-9
SAMPLE = 8192


def reference_seed(points, k, rng):
    """k-means++ seeding: spread initial centers by squared-distance sampling."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    closest = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(closest.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=closest / total))
        else:
            idx = int(rng.integers(n))
        centers[j] = points[idx]
        closest = np.minimum(closest, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def reference_distances(points, sq_norms, centers):
    """(n, k) squared distances ||x||^2 - 2 x.c + ||c||^2 as one expression."""
    return sq_norms[:, None] - 2.0 * points @ centers.T + np.sum(centers**2, axis=1)[None, :]


def reference_lloyd(points: np.ndarray, centers: np.ndarray):
    """Labels, centers and inertia after Lloyd's iterations from ``centers``."""
    centers = centers.copy()
    sq_norms = np.sum(points**2, axis=1)
    for _ in range(MAX_ITER):
        dists = reference_distances(points, sq_norms, centers)
        labels = np.argmin(dists, axis=1)
        new_centers = np.empty_like(centers)
        for j in range(centers.shape[0]):
            members = labels == j
            if not np.any(members):
                # Re-seed a starved center at the point worst served by its own.
                worst = int(np.argmax(np.min(dists, axis=1)))
                new_centers[j] = points[worst]
            else:
                new_centers[j] = points[members].mean(axis=0)
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift <= TOL:
            break
    dists = reference_distances(points, sq_norms, centers)
    labels = np.argmin(dists, axis=1)
    inertia = float(np.sum(np.maximum(np.min(dists, axis=1), 0.0)))
    return labels, centers, inertia


def reference_kmeans(data, k: int, restarts: int = 10, seed=None):
    """Best-of-``restarts`` :func:`reference_lloyd` from :func:`reference_seed`.

    Above ``SAMPLE`` points the restarts run on ``SAMPLE`` points drawn
    first, without replacement and in point order, and the best restart's
    centers are refined by one :func:`reference_lloyd` on all points.
    Returns ``(labels, centers, inertia)`` of the result.
    """
    points = as_dataset(data).points
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    sample = points
    if n > SAMPLE:
        sample = points[np.sort(rng.choice(n, size=SAMPLE, replace=False))]
    best = None
    for _ in range(restarts):
        result = reference_lloyd(sample, reference_seed(sample, k, rng))
        if best is None or result[2] < best[2]:
            best = result
    if n > SAMPLE:
        best = reference_lloyd(points, best[1])
    return best
