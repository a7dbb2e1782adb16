"""Synthetic benchmark generation.

Four named two-dimensional mixture profiles ship with the package in a
versioned JSON file; ``generate_sim`` samples labelled inliers from one of
them and ``contaminate_uniform`` appends uniformly distributed outliers
over the (slightly expanded) inlier bounding box.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

import numpy as np

from .core import Dataset, as_integer, validate_dataset
from .errors import DimensionMismatch, NonPositiveArgument

PROFILE_NAMES = ("easy", "unbalanced", "overlapped", "mixed")


@lru_cache(maxsize=1)
def _profile_table() -> dict:
    text = resources.files(__package__).joinpath("data/sim_profiles.json").read_text()
    payload = json.loads(text)
    if payload.get("schema_version") != 1:
        raise DimensionMismatch("unsupported profile schema version")
    return payload["profiles"]


def profile_parameters(profile: str) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Mixing weights, means, and covariances of a named profile."""
    table = _profile_table()
    if profile not in table:
        raise NonPositiveArgument(f"unknown profile {profile!r}; choose from {PROFILE_NAMES}")
    comps = table[profile]["components"]
    weights = np.array([c["weight"] for c in comps], dtype=np.float64)
    means = [np.array(c["mean"], dtype=np.float64) for c in comps]
    covs = [np.array(c["covariance"], dtype=np.float64) for c in comps]
    return weights, means, covs


def generate_sim(profile: str, n_inliers: int = 600, seed=None) -> Dataset:
    """Draw a labelled sample from one of the benchmark mixtures.

    Component counts are multinomial in the profile weights; rows are
    shuffled so labels are not grouped.  All points are flagged as inliers.
    """
    if as_integer(n_inliers, "n_inliers", NonPositiveArgument) < 1:
        raise NonPositiveArgument("n_inliers must be positive")
    weights, means, covs = profile_parameters(profile)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n_inliers, weights)
    blocks, labels = [], []
    for j, (count, mu, cov) in enumerate(zip(counts, means, covs)):
        if count == 0:
            continue
        blocks.append(rng.multivariate_normal(mu, cov, size=count, method="cholesky"))
        labels.append(np.full(count, j, dtype=np.int64))
    points = np.vstack(blocks)
    labels = np.concatenate(labels)
    order = rng.permutation(points.shape[0])
    return validate_dataset(
        points[order],
        labels=labels[order],
        outlier_flag=np.zeros(points.shape[0], dtype=bool),
    )


def contaminate_uniform(dataset: Dataset, outlier_fraction: float, margin: float = 0.1, seed=None) -> Dataset:
    """Append uniform outliers over the expanded inlier bounding box.

    ``outlier_fraction`` counts relative to the number of inliers (0.5 adds
    half as many outliers as there are inliers).  The box is the inlier
    bounding box grown by ``margin`` times its extent on every side.
    Outliers get label -1 and a raised outlier flag.  Raises
    NonPositiveArgument unless both arguments are finite and >= 0, when the
    outlier count would not fit in an array, or when the grown box is not
    finite.
    """
    if not 0.0 <= outlier_fraction < np.inf:
        raise NonPositiveArgument(f"outlier_fraction must be finite and >= 0, got {outlier_fraction}")
    if not 0.0 <= margin < np.inf:
        raise NonPositiveArgument(f"margin must be finite and >= 0, got {margin}")
    if dataset.modality is not None:
        raise DimensionMismatch("modality-tagged datasets cannot be contaminated")
    flags = np.zeros(dataset.n, dtype=bool) if dataset.outlier_flag is None else dataset.outlier_flag
    inliers = dataset.points[~flags]
    expected = outlier_fraction * inliers.shape[0]
    if not expected * dataset.d <= np.iinfo(np.intp).max // 8:
        raise NonPositiveArgument(f"outlier_fraction {outlier_fraction} asks for more outliers than an array holds")
    n_outliers = int(round(expected))
    if n_outliers == 0:
        return validate_dataset(dataset.points, labels=dataset.labels, outlier_flag=flags)
    lo = inliers.min(axis=0)
    hi = inliers.max(axis=0)
    with np.errstate(over="ignore"):
        pad = margin * (hi - lo)
        low, high = lo - pad, hi + pad
    if not (np.all(np.isfinite(low)) and np.all(np.isfinite(high))):
        raise NonPositiveArgument(f"margin {margin} grows the inlier bounding box beyond float range")
    rng = np.random.default_rng(seed)
    extra = rng.uniform(low, high, size=(n_outliers, dataset.d))
    points = np.vstack([dataset.points, extra])
    labels = None
    if dataset.labels is not None:
        labels = np.concatenate([dataset.labels, np.full(n_outliers, -1, dtype=np.int64)])
    flags = np.concatenate([flags, np.ones(n_outliers, dtype=bool)])
    return validate_dataset(points, labels=labels, outlier_flag=flags)
