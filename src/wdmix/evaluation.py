"""Clustering quality metrics and outlier scoring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import WeightMode, WeightState, _side_array, cluster_labels
from .errors import (
    DimensionMismatch,
    EmptyCluster,
    LengthMismatch,
    MissingFlags,
    NaNInput,
    SingleCluster,
    WdmixError,
)


def davies_bouldin(points, labels, centers) -> float:
    """Davies-Bouldin index: mean over clusters of the worst similarity ratio.

    Cluster scatter is the mean (unsquared) Euclidean distance of members to
    the given center; the ratio for a pair is the scatter sum over the
    center distance.  Lower is better.  Duplicate centers give an infinite
    index rather than an error; a label outside [0, K) or a non-finite
    point or center is an error.
    """
    pts = np.asarray(points, dtype=np.float64)
    labs = cluster_labels(labels, pts.shape[0])
    cen = np.asarray(centers, dtype=np.float64)
    if cen.ndim != 2 or cen.shape[1:] != pts.shape[1:]:
        raise DimensionMismatch(f"centers must be shaped (K, d) for points shaped {pts.shape}")
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(cen))):
        raise NaNInput("points and centers must be finite")
    k = cen.shape[0]
    if k < 2:
        raise SingleCluster("Davies-Bouldin needs at least two clusters")
    if np.any(labs >= k):
        raise DimensionMismatch(f"labels must lie in [0, {k}) for {k} centers")
    scatter = np.empty(k)
    for j in range(k):
        members = pts[labs == j]
        if members.shape[0] == 0:
            raise EmptyCluster(f"cluster {j} has no members")
        scatter[j] = float(np.mean(np.linalg.norm(members - cen[j], axis=1)))
    center_dist = np.linalg.norm(cen[:, None, :] - cen[None, :, :], axis=2)
    worst = np.empty(k)
    for j in range(k):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = (scatter[j] + scatter) / center_dist[j]
        ratios[j] = -np.inf
        worst[j] = float(np.max(ratios))
    return float(np.mean(worst))


def _max_assignment(profit) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a one-to-one matching with the largest total profit.

    Kuhn's Hungarian method as shortest augmenting paths with row and column
    potentials, one path per row of the shorter side, in int64.  It matches
    min(r, c) pairs, each row and column at most once, and its total equals
    that of ``scipy.optimize.linear_sum_assignment(profit, maximize=True)``.
    Exact for integer entries whose spread (max - min) times
    2 min(r, c) + 2 is below 2**63, which bounds every potential and reduced
    cost; a wider spread raises WdmixError rather than wrapping.
    """
    gain = np.asarray(profit)
    flip = gain.shape[0] > gain.shape[1]
    if flip:
        gain = gain.T
    r, c = gain.shape
    top = int(gain.max())
    if (top - int(gain.min())) * (2 * r + 2) >= 2**63:
        raise WdmixError("assignment profits span too wide a range for exact int64 matching")
    cost = (top - gain).astype(np.int64)
    never = np.iinfo(np.int64).max
    # Column 0 is a virtual start; row_of[j] is the 1-based row matched to column j.
    u = np.zeros(r + 1, dtype=np.int64)
    v = np.zeros(c + 1, dtype=np.int64)
    row_of = np.zeros(c + 1, dtype=np.int64)
    for i in range(1, r + 1):
        row_of[0] = i
        dist = np.full(c + 1, never, dtype=np.int64)
        way = np.zeros(c + 1, dtype=np.int64)
        seen = np.zeros(c + 1, dtype=bool)
        j = 0
        while row_of[j]:
            seen[j] = True
            row = row_of[j]
            reduced = cost[row - 1] - u[row] - v[1:]
            closer = ~seen[1:] & (reduced < dist[1:])
            dist[1:][closer] = reduced[closer]
            way[1:][closer] = j
            step = np.where(seen, never, dist)
            j = int(np.argmin(step))
            delta = step[j]
            u[row_of[seen]] += delta
            v[seen] -= delta
            dist[~seen] -= delta
        while j:
            row_of[j] = row_of[way[j]]
            j = way[j]
    cols = np.flatnonzero(row_of[1:])
    rows = row_of[1:][cols] - 1
    return (cols, rows) if flip else (rows, cols)


def micro_f1(predicted, true) -> float:
    """Micro-averaged F1 after matching clusters to classes one-to-one.

    The matching maximises total overlap by rectangular assignment, and
    among the matchings with the most overlap takes one with the fewest
    false positives, so the score does not depend on the cluster ids.  With
    single-label data and a full matching this equals plain accuracy.
    """
    pred = np.asarray(predicted).ravel()
    truth = np.asarray(true).ravel()
    if pred.shape[0] != truth.shape[0] or pred.shape[0] == 0:
        raise LengthMismatch("predicted and true labels disagree in length")
    clusters, pred_idx = np.unique(pred, return_inverse=True)
    classes, true_idx = np.unique(truth, return_inverse=True)
    contingency = np.zeros((clusters.size, classes.size), dtype=np.int64)
    np.add.at(contingency, (pred_idx, true_idx), 1)
    # Overlap first, then the matched cluster's misses: c (n + 1) - (row sum - c),
    # where the misses of any matching total at most n.  In Python ints, so a
    # profit too large for int64 reaches the solver's range check unwrapped.
    n = int(contingency.sum())
    counts = contingency.astype(object)
    misses = counts.sum(axis=1, keepdims=True) - counts
    rows, cols = _max_assignment(counts * (n + 1) - misses)
    tp = int(contingency[rows, cols].sum())
    # Every point whose true class is not hit counts as one false negative;
    # points in matched clusters that miss additionally count as one false
    # positive, while unmatched clusters predict no class and add none.
    fp = int(contingency[rows].sum()) - tp
    fn = n - tp
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a finite vector, ties sharing their mean rank.

    Equal to ``scipy.stats.rankdata(values)`` bit for bit: the tie group at
    sorted positions start <= i < end gets the mean 1-based position
    (start + end + 1) / 2, a half-integer and so exact in float64.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], ordered.size)
    ranks = np.empty(ordered.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


@dataclass(frozen=True)
class OutlierScoreReport:
    """Summary of how well low posterior weight means flag contamination."""

    inlier_mean_weight: float | None
    outlier_mean_weight: float | None
    auc: float | None


def outlier_score_report(weight_state: WeightState, outlier_flag) -> OutlierScoreReport:
    """Score planted outliers by low marginal posterior weight mean.

    The AUC is the rank probability that a random outlier scores higher
    than a random inlier when the score is the negated weight mean (ties
    counted half).  Sides without members leave their fields as None.
    """
    if outlier_flag is None:
        raise MissingFlags("ground-truth outlier flags are required")
    if weight_state.mode != WeightMode.RANDOM or weight_state.marginal_mean is None:
        raise WdmixError("outlier scoring needs marginal posterior weight means")
    wbar = weight_state.marginal_mean
    flags = _side_array("outlier_flag", outlier_flag, wbar.shape[0])
    n_out = int(flags.sum())
    n_in = int((~flags).sum())
    inlier_mean = float(wbar[~flags].mean()) if n_in else None
    outlier_mean = float(wbar[flags].mean()) if n_out else None
    auc = None
    if n_in and n_out:
        ranks = _average_ranks(-wbar)
        auc = float((ranks[flags].sum() - n_out * (n_out + 1) / 2.0) / (n_out * n_in))
    return OutlierScoreReport(inlier_mean, outlier_mean, auc)
