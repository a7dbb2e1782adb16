"""Audio-visual clustering helpers.

Points from two modalities (audio localisation estimates and visual
detections in a shared image plane) are clustered together; a point's
weight is a kernel sum over all points of the opposite modality, so
locations observed by both sensors dominate the fit.  Components are then
tagged by the modality mix of their members, and a detection succeeds when
the ground-truth location lands in a component tagged as audio-visual.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Dataset, MixtureModel, Responsibilities, _side_array
from .em_fixed import e_step
from .errors import LengthMismatch, SingleModality
from .initialization import kernel_sums, pipeline_gamma_priors
from .model_selection import MmlConfig, select_model

AUDIO = "a"
VISUAL = "v"
_K_HIGH = 5  # components each segment's selection starts from (at most n)
_BANDWIDTH = 100.0  # kernel bandwidth of the cross-modal weights


class ComponentTag(str, Enum):
    AUDIO_VISUAL = "audio_visual"
    AUDIO_ONLY = "audio_only"
    VISUAL_ONLY = "visual_only"


def _sqeuclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared distances summed over the coordinates in order:
    ``cdist(a, b, "sqeuclidean")``'s bits, without loading ``scipy.spatial``."""
    d2 = np.zeros((a.shape[0], b.shape[0]))
    term = np.empty_like(d2)
    for a_c, b_c in zip(a.T, b.T):
        np.subtract(a_c[:, None], b_c, out=term)
        term *= term
        d2 += term
    return d2


def cross_modal_weights(dataset: Dataset) -> np.ndarray:
    """Kernel sum over every point of the opposite modality.

    Audio points are weighted by their proximity to all visual points and
    vice versa; unlike the nearest-neighbour weights there is no neighbour
    truncation.
    """
    if dataset.modality is None:
        raise SingleModality("dataset has no modality tags")
    audio = dataset.modality == AUDIO
    visual = dataset.modality == VISUAL
    if not np.any(audio) or not np.any(visual):
        raise SingleModality("need points from both modalities")
    pts = dataset.points
    weights = np.empty(dataset.n)
    for mask, other in ((audio, visual), (visual, audio)):
        weights[mask] = kernel_sums(_sqeuclidean(pts[mask], pts[other]), _BANDWIDTH)
    return weights


def classify_components(
    responsibilities: Responsibilities, modality, threshold: float = 0.05
) -> tuple[list, np.ndarray]:
    """Tag each component by the modality balance of its hard members.

    The relevance of component k is min(audio members, visual members)
    divided by the total point count; components at or above ``threshold``
    are tagged audio-visual, the rest by their dominant modality (audio
    wins exact ties).
    """
    modality = _side_array("modality", modality, responsibilities.n)
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
    """Per-segment analysis settings: the seed of the selection's k-means restarts."""

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
    weights = cross_modal_weights(segment)
    alpha, beta = pipeline_gamma_priors(weights)
    mml = MmlConfig(k_high=min(_K_HIGH, segment.n))
    report = select_model(segment, mml, weights=(alpha, beta), seed=cfg.seed)
    tags, relevance = classify_components(report.final_responsibilities, segment.modality)
    return AvSegmentResult(
        model=report.final_model,
        responsibilities=report.final_responsibilities,
        tags=tags,
        relevance=relevance,
        weights=weights,
    )
