"""Cross-modal weighting, component tagging, and segment analysis."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wdmix import (
    AvConfig,
    ComponentTag,
    Responsibilities,
    analyze_segment,
    classify_components,
    correct_detection,
    cross_modal_weights,
    model_from_parameters,
    validate_dataset,
)
from wdmix.av_fusion import _sqeuclidean
from wdmix.errors import LengthMismatch, SingleModality


def _segment(audio_points, visual_points):
    pts = np.vstack([audio_points, visual_points])
    tags = ["a"] * len(audio_points) + ["v"] * len(visual_points)
    return validate_dataset(pts, modality=np.asarray(tags))


def _two_speaker_segment(seed):
    """Speaker A emits audio and is visible; B is a silent visible object."""
    gen = np.random.default_rng(seed)
    audio = gen.normal([-60.0, 0.0], 10.0, size=(50, 2))
    visual_a = gen.normal([-60.0, 0.0], 10.0, size=(30, 2))
    visual_b = gen.normal([60.0, 0.0], 10.0, size=(40, 2))
    pts = np.vstack([audio, visual_a, visual_b])
    tags = np.array(["a"] * 50 + ["v"] * 70)
    order = gen.permutation(120)
    return validate_dataset(pts[order], modality=tags[order])


class TestCrossModalWeights:
    def test_hand_kernel_sums(self):
        # One audio point 10 away from each of two visual points:
        # its weight is 2 exp(-100/100); each visual point sees one audio
        # point at the same distance and gets exp(-1).
        seg = _segment([[0.0, 0.0]], [[10.0, 0.0], [0.0, 10.0]])
        w = cross_modal_weights(seg)
        assert w[0] == pytest.approx(2.0 * np.exp(-1.0), rel=1e-12)
        assert w[1] == pytest.approx(np.exp(-1.0), rel=1e-12)
        assert w[2] == pytest.approx(np.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
    def test_cdist_bits(self, d, scale):
        # The package sums the coordinates itself so that it need not load
        # scipy.spatial; the test loads it to hold that sum to cdist's bits.
        from scipy.spatial.distance import cdist

        gen = np.random.default_rng(d)
        audio = gen.normal(size=(37, d)) * 20.0 * scale
        visual = gen.normal(size=(29, d)) * 20.0 * scale + 30.0 * scale
        visual[:4] = audio[0]  # duplicates of a point of the other modality
        audio[5:8] = audio[4]  # and of its own
        assert _sqeuclidean(audio, visual).tobytes() == cdist(audio, visual, "sqeuclidean").tobytes()
        want = [np.maximum(np.sum(np.exp(-cdist(x, y, "sqeuclidean") / 100.0), axis=1), 1e-12)
                for x, y in ((audio, visual), (visual, audio))]
        assert cross_modal_weights(_segment(audio, visual)).tobytes() == np.concatenate(want).tobytes()

    def test_no_neighbour_truncation(self):
        # Unlike the nearest-neighbour kernel, every opposite-modality point
        # contributes, so adding a far visual point still adds mass.
        base = _segment([[0.0, 0.0]], [[10.0, 0.0]])
        more = _segment([[0.0, 0.0]], [[10.0, 0.0], [30.0, 0.0]])
        w_base = cross_modal_weights(base)[0]
        w_more = cross_modal_weights(more)[0]
        assert w_more > w_base

    def test_colocated_modalities_score_high(self):
        gen = np.random.default_rng(3)
        audio = gen.normal(0.0, 5.0, size=(20, 2))
        visual = gen.normal(0.0, 5.0, size=(20, 2))
        lonely_audio = np.array([[400.0, 400.0]])
        seg = _segment(np.vstack([audio, lonely_audio]), visual)
        w = cross_modal_weights(seg)
        assert w[20] == pytest.approx(1e-12)  # floor for the isolated point
        assert w[:20].min() > 1.0

    def test_requires_both_modalities(self):
        with pytest.raises(SingleModality):
            cross_modal_weights(validate_dataset([[0.0, 0.0]]))
        only_audio = validate_dataset([[0.0, 0.0], [1.0, 0.0]], modality=["a", "a"])
        with pytest.raises(SingleModality):
            cross_modal_weights(only_audio)


@settings(max_examples=20, deadline=None)
@given(
    n_audio=st.integers(1, 60),
    n_visual=st.integers(1, 60),
    seed=st.integers(0, 2**16),
    angle=st.floats(0.0, 2.0 * np.pi),
    shift=st.lists(st.floats(-1e8, 1e8), min_size=2, max_size=2),
)
@example(n_audio=50, n_visual=70, seed=3, angle=0.0, shift=[1e8, 1e8])
def test_weights_invariant_under_rigid_motion(n_audio, n_visual, seed, angle, shift):
    # A shift of 1e8 rounds each coordinate by up to 7.5e-9, which moves a
    # kernel term of a pair 100 apart by about 4e-8 relative.
    gen = np.random.default_rng(seed)
    audio = gen.normal(size=(n_audio, 2)) * 20.0
    visual = gen.normal(size=(n_visual, 2)) * 20.0 + [60.0, 0.0]
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    moved = [pts @ rotation.T + np.array(shift) for pts in (audio, visual)]
    np.testing.assert_allclose(
        cross_modal_weights(_segment(*moved)),
        cross_modal_weights(_segment(audio, visual)),
        rtol=1e-6,
        atol=0.0,
    )


class TestClassifyComponents:
    def test_worked_relevance_example(self):
        """Forty audio and ten visual observations; the first component owns
        twenty audio and five visual of them, so its relevance is
        min(20, 5) / 50 = 0.1."""
        modality = np.array(["a"] * 40 + ["v"] * 10)
        eta = np.zeros((50, 3))
        eta[:20, 0] = 1.0  # 20 audio
        eta[40:45, 0] = 1.0  # 5 visual
        eta[20:40, 1] = 1.0  # 20 audio only
        eta[45:, 2] = 1.0  # 5 visual only
        tags, relevance = classify_components(
            Responsibilities(eta), modality, threshold=0.05
        )
        assert relevance[0] == pytest.approx(0.1)
        assert tags[0] is ComponentTag.AUDIO_VISUAL
        assert relevance[1] == 0.0
        assert tags[1] is ComponentTag.AUDIO_ONLY
        assert relevance[2] == 0.0
        assert tags[2] is ComponentTag.VISUAL_ONLY

    def test_threshold_is_inclusive(self):
        # relevance exactly at the threshold counts as audio-visual.
        modality = np.array(["a"] * 10 + ["v"] * 10)
        eta = np.zeros((20, 2))
        eta[:1, 0] = 1.0
        eta[10:11, 0] = 1.0
        eta[1:10, 1] = 1.0
        eta[11:, 1] = 1.0
        tags, relevance = classify_components(
            Responsibilities(eta), modality, threshold=0.05
        )
        assert relevance[0] == pytest.approx(0.05)
        assert tags[0] is ComponentTag.AUDIO_VISUAL

    def test_audio_wins_exact_ties_below_threshold(self):
        modality = np.array(["a"] * 50 + ["v"] * 50)
        eta = np.zeros((100, 2))
        eta[:2, 0] = 1.0  # 2 audio
        eta[50:52, 0] = 1.0  # 2 visual -> relevance 0.02 < 0.05, tie 2 = 2
        eta[2:50, 1] = 1.0
        eta[52:, 1] = 1.0
        tags, relevance = classify_components(
            Responsibilities(eta), modality, threshold=0.05
        )
        assert relevance[0] == pytest.approx(0.02)
        assert tags[0] is ComponentTag.AUDIO_ONLY

    def test_partition_invariants(self, rng):
        """Per-component modality counts partition the segment totals."""
        n, k = 200, 4
        modality = np.where(rng.uniform(size=n) < 0.6, "a", "v")
        logits = rng.normal(size=(n, k))
        eta = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        resp = Responsibilities(eta)
        tags, relevance = classify_components(resp, modality)
        hard = resp.hard_assignments()
        audio_total = int(np.sum(modality == "a"))
        visual_total = n - audio_total
        per_comp_audio = [
            int(np.sum((hard == j) & (modality == "a"))) for j in range(k)
        ]
        per_comp_visual = [
            int(np.sum((hard == j) & (modality == "v"))) for j in range(k)
        ]
        assert sum(per_comp_audio) == audio_total
        assert sum(per_comp_visual) == visual_total
        for j in range(k):
            assert relevance[j] == pytest.approx(
                min(per_comp_audio[j], per_comp_visual[j]) / n
            )
        assert len(tags) == k

    def test_length_mismatch(self):
        eta = Responsibilities(np.ones((3, 1)))
        with pytest.raises(LengthMismatch):
            classify_components(eta, np.array(["a", "v"]))

    # Such tags were counted as neither modality, without a word.
    @pytest.mark.parametrize("modality", [["a", "v", "a", "x"], ["audio", "v", "a", "v"]], ids=["x", "audio"])
    def test_tags_other_than_a_or_v_rejected(self, modality):
        eta = Responsibilities(np.ones((4, 1)))
        with pytest.raises(LengthMismatch, match="modality"):
            classify_components(eta, modality)


class TestCorrectDetection:
    @pytest.fixture()
    def model(self):
        return model_from_parameters(
            [np.array([-60.0, 0.0]), np.array([60.0, 0.0])],
            [np.eye(2) * 100.0, np.eye(2) * 100.0],
            [0.5, 0.5],
        )

    def test_hit_on_audio_visual_component(self, model):
        tags = [ComponentTag.AUDIO_VISUAL, ComponentTag.VISUAL_ONLY]
        assert correct_detection([-60.0, 0.0], model, tags)

    def test_miss_when_nearest_is_not_audio_visual(self, model):
        tags = [ComponentTag.AUDIO_VISUAL, ComponentTag.VISUAL_ONLY]
        assert not correct_detection([60.0, 0.0], model, tags)

    def test_tag_count_checked(self, model):
        with pytest.raises(LengthMismatch):
            correct_detection([0.0, 0.0], model, [ComponentTag.AUDIO_VISUAL])


class TestAnalyzeSegment:
    def test_two_speaker_segment(self):
        seg = _two_speaker_segment(0)
        result = analyze_segment(seg, AvConfig(seed=0))
        assert ComponentTag.AUDIO_VISUAL in result.tags
        assert correct_detection([-60.0, 0.0], result.model, result.tags)
        # The silent object's side may split into several components, but
        # none of them can carry the audio-visual tag.
        for tag, comp in zip(result.tags, result.model.components):
            if np.linalg.norm(comp.mean - [60.0, 0.0]) < 40.0:
                assert tag is ComponentTag.VISUAL_ONLY
        assert result.weights.shape == (seg.n,)
        assert result.relevance.shape == (result.model.n_components,)

    def test_deterministic_for_seed(self):
        seg = _two_speaker_segment(1)
        a = analyze_segment(seg, AvConfig(seed=5))
        b = analyze_segment(seg, AvConfig(seed=5))
        assert np.array_equal(a.model.proportions, b.model.proportions)
        assert a.tags == b.tags
