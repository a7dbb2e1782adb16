"""Audio-visual clustering helpers.

Points from two modalities (audio localisation estimates and visual
detections in a shared image plane) are clustered together; a point's
weight is a kernel sum over all points of the opposite modality, so
locations observed by both sensors dominate the fit.  Components are then
tagged by the modality mix of their members, and a detection succeeds when
the ground-truth location lands in a component tagged as audio-visual.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Dataset, MixtureModel, Responsibilities, validate_dataset
from .em_fixed import e_step
from .errors import LengthMismatch, NonPositiveWeight, SingleModality
from .model_selection import MmlConfig, select_model

AUDIO = "a"
VISUAL = "v"

# Kernel sums are clamped like the nearest-neighbour weights so gamma priors
# stay valid for points isolated from the other modality.
_WEIGHT_FLOOR = 1e-12


class ComponentTag(str, Enum):
    AUDIO_VISUAL = "audio_visual"
    AUDIO_ONLY = "audio_only"
    VISUAL_ONLY = "visual_only"


def cross_modal_weights(dataset: Dataset, bandwidth: float = 100.0) -> np.ndarray:
    """Kernel sum over every point of the opposite modality.

    Audio points are weighted by their proximity to all visual points and
    vice versa; unlike the nearest-neighbour weights there is no neighbour
    truncation.
    """
    if bandwidth <= 0.0:
        raise NonPositiveWeight("bandwidth must be positive")
    if dataset.modality is None:
        raise SingleModality("dataset has no modality tags")
    audio = dataset.modality == AUDIO
    visual = dataset.modality == VISUAL
    if not np.any(audio) or not np.any(visual):
        raise SingleModality("need points from both modalities")
    pts = dataset.points
    weights = np.empty(dataset.n)
    for mask, other in ((audio, visual), (visual, audio)):
        d2 = (
            np.sum(pts[mask] ** 2, axis=1)[:, None]
            - 2.0 * pts[mask] @ pts[other].T
            + np.sum(pts[other] ** 2, axis=1)[None, :]
        )
        np.maximum(d2, 0.0, out=d2)
        weights[mask] = np.sum(np.exp(-d2 / bandwidth), axis=1)
    return np.maximum(weights, _WEIGHT_FLOOR)


def classify_components(
    responsibilities: Responsibilities, modality, threshold: float = 0.05
) -> tuple[list, np.ndarray]:
    """Tag each component by the modality balance of its hard members.

    The relevance of component k is min(audio members, visual members)
    divided by the total point count; components at or above ``threshold``
    are tagged audio-visual, the rest by their dominant modality (audio
    wins exact ties).
    """
    modality = np.asarray(modality)
    if modality.shape[0] != responsibilities.n:
        raise LengthMismatch("modality tags and responsibilities disagree in length")
    hard = responsibilities.hard_assignments()
    n_total = responsibilities.n
    k = responsibilities.k
    tags = []
    relevance = np.empty(k)
    for j in range(k):
        members = hard == j
        n_audio = int(np.count_nonzero(members & (modality == AUDIO)))
        n_visual = int(np.count_nonzero(members & (modality == VISUAL)))
        relevance[j] = min(n_audio, n_visual) / n_total
        if relevance[j] >= threshold:
            tags.append(ComponentTag.AUDIO_VISUAL)
        elif n_audio >= n_visual:
            tags.append(ComponentTag.AUDIO_ONLY)
        else:
            tags.append(ComponentTag.VISUAL_ONLY)
    return tags, relevance


def correct_detection(x_g, model: MixtureModel, component_tags) -> bool:
    """Check a ground-truth location against the fitted components.

    The location is assigned to its highest-posterior component under
    unit-weight Gaussian responsibilities; the detection is correct when
    that component is tagged audio-visual and its posterior reaches 1/K
    with K the number of fitted components.
    """
    if len(component_tags) != model.n_components:
        raise LengthMismatch("one tag per component is required")
    point = np.asarray(x_g, dtype=np.float64)[None, :]
    posterior = e_step(point, model, 1.0).matrix[0]
    best = int(np.argmax(posterior))
    k = model.n_components
    return component_tags[best] == ComponentTag.AUDIO_VISUAL and posterior[best] >= 1.0 / k


@dataclass(frozen=True)
class AvConfig:
    """Per-segment analysis settings."""

    bandwidth: float = 100.0
    threshold: float = 0.05
    k_high: int = 5
    k_low: int = 1
    epsilon: float = 1e-5
    restarts: int = 10
    seed: int | None = None


@dataclass(frozen=True)
class AvSegmentResult:
    """Outcome of clustering one segment."""

    model: MixtureModel
    responsibilities: Responsibilities
    tags: list
    relevance: np.ndarray
    weights: np.ndarray


def analyze_segment(segment: Dataset, config: AvConfig | None = None) -> AvSegmentResult:
    """Cluster one segment with cross-modal weights and tag the components."""
    cfg = config or AvConfig()
    weights = cross_modal_weights(segment, bandwidth=cfg.bandwidth)
    from .initialization import pipeline_gamma_priors

    alpha, beta = pipeline_gamma_priors(weights)
    mml = MmlConfig(k_high=min(cfg.k_high, segment.n), k_low=cfg.k_low, epsilon=cfg.epsilon)
    report = select_model(
        segment,
        mml,
        weights=(alpha, beta),
        seed=cfg.seed,
        restarts=cfg.restarts,
    )
    tags, relevance = classify_components(
        report.final_responsibilities, segment.modality, threshold=cfg.threshold
    )
    return AvSegmentResult(
        model=report.final_model,
        responsibilities=report.final_responsibilities,
        tags=tags,
        relevance=relevance,
        weights=weights,
    )


def analyze_segments(segments, config: AvConfig | None = None) -> list:
    """Analyse segments independently, one after another."""
    return [analyze_segment(seg, config) for seg in segments]


def load_segment_csv(path) -> Dataset:
    """Read a segment file with columns x, y, modality ('a' or 'v')."""
    points, tags = [], []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {"x", "y", "modality"} <= set(reader.fieldnames):
            raise LengthMismatch("segment CSV needs columns x, y, modality")
        for row in reader:
            points.append((float(row["x"]), float(row["y"])))
            tags.append(row["modality"].strip())
    return validate_dataset(np.asarray(points), modality=np.asarray(tags))


def load_ground_truth_csv(path) -> dict:
    """Read ground-truth locations keyed by segment id."""
    truth = {}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {"segment_id", "x_g", "y_g"} <= set(reader.fieldnames):
            raise LengthMismatch("ground-truth CSV needs columns segment_id, x_g, y_g")
        for row in reader:
            truth[row["segment_id"]] = np.array([float(row["x_g"]), float(row["y_g"])])
    return truth
