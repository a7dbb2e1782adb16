"""Message-length selection: proportion truncation, code length, full search."""

import math
import warnings

import numpy as np
import pytest

from reference_selection import reference_select_model
from wdmix import (
    CovarianceShape,
    MixtureModel,
    MmlConfig,
    WeightMode,
    WeightState,
    contaminate_uniform,
    em_fixed,
    em_weighted,
    generate_sim,
    message_length,
    model_from_parameters,
    select_model,
    truncated_proportions,
    validate_dataset,
)
from wdmix.errors import (
    AllAnnihilated,
    DimensionMismatch,
    EmptyInput,
    LengthMismatch,
    NonPositiveShape,
    NonPositiveWeight,
)


class TestTruncatedProportions:
    def test_partial_truncation(self):
        # Free parameter count 5 trims 2.5 from each column sum.
        out = truncated_proportions([10.0, 0.5, 4.0], 5)
        assert out[0] == pytest.approx(7.5 / 9.0, abs=1e-15)
        assert out[1] == 0.0
        assert out[2] == pytest.approx(1.5 / 9.0, abs=1e-15)
        assert out.sum() == pytest.approx(1.0, abs=1e-15)

    def test_exact_threshold_gives_zero(self):
        out = truncated_proportions([2.5, 10.0], 5)
        assert out[0] == 0.0
        assert out[1] == 1.0

    def test_no_truncation_when_supported(self):
        out = truncated_proportions([30.0, 10.0], 4)
        assert np.allclose(out, [28.0 / 36.0, 8.0 / 36.0])

    def test_all_annihilated(self):
        with pytest.raises(AllAnnihilated):
            truncated_proportions([3.0, 3.0], 6)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            truncated_proportions([], 2)


def _manual_length(points, model, eta, wbar):
    """Independent code-length arithmetic with explicit Python loops."""
    n = len(points)
    active = [k for k in range(model.n_components) if model.proportions[k] > 0.0]
    kplus = len(active)
    d = model.d
    m = d * (d + 3) // 2
    q_value = 0.0
    for i in range(n):
        for k in active:
            comp = model.components[k]
            diff = np.asarray(points[i]) - comp.mean
            inv = np.linalg.inv(comp.full_covariance())
            maha = float(diff @ inv @ diff)
            q_value += eta[i][k] * (
                math.log(model.proportions[k])
                - 0.5 * comp.log_det
                - 0.5 * wbar[i][k] * maha
            )
    param_cost = 0.5 * kplus * (m + 1) * (1.0 + math.log(n / 12.0))
    prop_cost = 0.5 * m * sum(math.log(model.proportions[k]) for k in active)
    return prop_cost - q_value + param_cost


@pytest.fixture(scope="module")
def tiny_mixture():
    gen = np.random.default_rng(31)
    points = np.concatenate([gen.normal(0.0, 1.0, 6), gen.normal(8.0, 1.0, 4)])
    data = validate_dataset(points[:, None])
    model = model_from_parameters(
        [np.array([0.5]), np.array([7.5])], [np.eye(1) * 1.2, np.eye(1) * 0.8], [0.6, 0.4]
    )
    return data, model


class TestMessageLength:
    def test_fixed_weights_match_manual_arithmetic(self, tiny_mixture):
        data, model = tiny_mixture
        w = np.linspace(0.5, 2.0, data.n)
        eta = em_fixed.e_step(data, model, w)
        got = message_length(data, model, eta, WeightState.fixed(w))
        wbar = np.tile(w[:, None], (1, 2))
        expected = _manual_length(data.points, model, eta.matrix.tolist(), wbar.tolist())
        assert got == pytest.approx(expected, rel=1e-10)

    def test_random_weights_match_manual_arithmetic(self, tiny_mixture):
        data, model = tiny_mixture
        state = WeightState.random_prior(np.full(data.n, 4.0), np.full(data.n, 2.0))
        eta = em_weighted.e_step_assignments(data, model, state)
        post = em_weighted.e_step_weights(data, model, state)
        got = message_length(data, model, eta, post)
        expected = _manual_length(
            data.points, model, eta.matrix.tolist(), post.post_mean.tolist()
        )
        assert got == pytest.approx(expected, rel=1e-10)

    def test_zero_proportion_component_excluded(self, tiny_mixture):
        data, _ = tiny_mixture
        full = model_from_parameters(
            [np.array([0.5]), np.array([7.5]), np.array([100.0])],
            [np.eye(1), np.eye(1), np.eye(1)],
            [0.6, 0.4, 0.0],
        )
        w = np.ones(data.n)
        # Hand-build responsibilities that give the dead component nothing.
        eta2 = em_fixed.e_step(data, full, w)
        got = message_length(data, full, eta2, WeightState.fixed(w))
        expected = _manual_length(
            data.points, full, eta2.matrix.tolist(), np.ones((data.n, 3)).tolist()
        )
        assert got == pytest.approx(expected, rel=1e-10)

    def test_parameter_cost_grows_with_components(self, tiny_mixture):
        # Splitting one comfortable component into two identical halves
        # leaves Q unchanged but pays one extra parameter block.
        data, _ = tiny_mixture
        w = np.ones(data.n)
        one = model_from_parameters([np.array([3.0])], [np.eye(1) * 9.0], [1.0])
        eta1 = em_fixed.e_step(data, one, w)
        single = message_length(data, one, eta1, WeightState.fixed(w))
        n = data.n
        twin = model_from_parameters(
            [np.array([3.0]), np.array([3.0])], [np.eye(1) * 9.0, np.eye(1) * 9.0], [0.5, 0.5]
        )
        eta2 = em_fixed.e_step(data, twin, w)
        double = message_length(data, twin, eta2, WeightState.fixed(w))
        m = 2
        extra_param = 0.5 * (m + 1) * (1.0 + math.log(n / 12.0))
        # Q loses eta*log(1/2) per point; proportions cost adds m*log(1/2).
        assert double - single == pytest.approx(
            extra_param + m * math.log(0.5) - n * math.log(0.5), rel=1e-9
        )


class TestMmlConfig:
    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            MmlConfig(k_high=3, k_low=4)
        with pytest.raises(DimensionMismatch):
            MmlConfig(k_high=0)
        with pytest.raises(DimensionMismatch):
            MmlConfig(k_high=3, epsilon=-1.0)
        with pytest.raises(DimensionMismatch):
            MmlConfig(k_high=3, assignment_rates="other")

    def test_mode_coercion(self):
        config = MmlConfig(k_high=3, weight_mode="fixed")
        assert config.weight_mode is WeightMode.FIXED


class TestSelectModel:
    def test_finds_three_blobs_random_mode(self, blobs_2d):
        config = MmlConfig(k_high=6, epsilon=1e-5)
        report = select_model(blobs_2d, config, seed=0)
        assert report.final_model.n_components == 3
        assert report.converged
        assert report.best_length == pytest.approx(min(report.checkpoint_lengths))
        hist = np.array(report.kplus_history)
        assert np.all(np.diff(hist) <= 0)  # components only ever disappear
        assert hist[0] <= 6 and hist[-1] >= 1

    def test_finds_three_blobs_fixed_unit_weights(self, blobs_2d):
        # Unit-weight (plain Gaussian) selection is init-sensitive on small
        # samples: some starts keep a small fourth component at a marginally
        # shorter code length.  Seed 1 lands on the three-cluster optimum.
        config = MmlConfig(k_high=6, weight_mode=WeightMode.FIXED)
        report = select_model(blobs_2d, config, weights=np.ones(blobs_2d.n), seed=1)
        assert report.final_model.n_components == 3
        assert report.final_weights.mode == WeightMode.FIXED

    def test_easy_benchmark_recovers_five(self, easy_clean):
        config = MmlConfig(k_high=10)
        report = select_model(easy_clean, config, seed=0)
        assert report.final_model.n_components == 5

    def test_seed_determinism(self, blobs_2d):
        config = MmlConfig(k_high=6)
        a = select_model(blobs_2d, config, seed=42)
        b = select_model(blobs_2d, config, seed=42)
        assert np.array_equal(a.final_model.proportions, b.final_model.proportions)
        for ca, cb in zip(a.final_model.components, b.final_model.components):
            assert np.array_equal(ca.mean, cb.mean)
            assert np.array_equal(ca.full_covariance(), cb.full_covariance())
        assert a.objective_trace == b.objective_trace

    def test_explicit_initial_model(self, blobs_2d):
        init = model_from_parameters(
            [np.array([0.0, 0.0]), np.array([120.0, 0.0]), np.array([0.0, 120.0]),
             np.array([60.0, 60.0])],
            [np.eye(2) * 100.0] * 4,
            [0.25, 0.25, 0.25, 0.25],
        )
        config = MmlConfig(k_high=4)
        report = select_model(blobs_2d, config, initial_model=init, seed=0)
        assert report.final_model.n_components == 3

    def test_equal_bounds_stop_forced_annihilation(self, blobs_2d):
        config = MmlConfig(k_high=3, k_low=3)
        report = select_model(blobs_2d, config, seed=0)
        assert report.final_model.n_components == 3
        assert report.annihilation_log == ()
        assert len(report.checkpoint_lengths) == 1

    def test_budget_exhaustion_reports_nonconverged(self, blobs_2d):
        config = MmlConfig(k_high=6, max_outer_iter=2)
        report = select_model(blobs_2d, config, seed=0)
        assert not report.converged
        assert report.iterations == 2
        assert report.final_model is not None

    def test_all_annihilated_with_no_checkpoint_raises(self):
        # Four points cannot support two 5-parameter 2-D components: both
        # columns fall below the half-parameter threshold in the very first
        # sweep, before any checkpoint exists.
        data = validate_dataset(
            [[0.0, 0.0], [1.0, 0.0], [10.0, 10.0], [11.0, 10.0]]
        )
        config = MmlConfig(k_high=2, k_low=1, weight_mode=WeightMode.FIXED)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(AllAnnihilated):
                select_model(data, config, weights=np.ones(4), seed=0)

    def test_small_sample_warning(self):
        data = validate_dataset(np.random.default_rng(0).normal(size=(8, 2)))
        config = MmlConfig(k_high=4, k_low=4, weight_mode=WeightMode.FIXED)
        with pytest.warns(UserWarning, match="selection may be unstable"):
            select_model(data, config, weights=np.ones(8), seed=0)

    def test_annihilation_log_entries_are_consistent(self, easy_clean):
        config = MmlConfig(k_high=10)
        report = select_model(easy_clean, config, seed=3)
        for event in report.annihilation_log:
            assert 0 <= event.iteration <= report.iterations
            assert 0 <= event.component < 10
            assert 0.0 <= event.proportion < 1.0

    def test_diagonal_covariance_mode(self, blobs_2d):
        config = MmlConfig(k_high=6)
        report = select_model(
            blobs_2d, config, covariance_shape=CovarianceShape.DIAGONAL, seed=0
        )
        assert report.final_model.covariance_shape == CovarianceShape.DIAGONAL
        assert report.final_model.n_components == 3
        assert all(c.is_diagonal for c in report.final_model.components)


class TestWeightValidation:
    """Malformed weights are rejected before any k-means restart runs."""

    @pytest.fixture
    def no_kmeans(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("k-means ran before the weights were checked")

        monkeypatch.setattr("wdmix.model_selection.kmeans", fail)

    @pytest.mark.parametrize("bad", [np.ones(149), np.r_[0.0, np.ones(149)], np.r_[np.nan, np.ones(149)]])
    def test_fixed_weights(self, blobs_2d, no_kmeans, bad):
        config = MmlConfig(k_high=4, weight_mode=WeightMode.FIXED)
        expected = LengthMismatch if bad.size != blobs_2d.n else NonPositiveWeight
        with pytest.raises(expected):
            select_model(blobs_2d, config, weights=bad, seed=0)

    def test_random_priors_one_short(self, blobs_2d, no_kmeans):
        config = MmlConfig(k_high=4)
        with pytest.raises(LengthMismatch):
            select_model(blobs_2d, config, weights=(np.ones(149), np.ones(149)), seed=0)

    def test_random_mode_rejects_plain_weight_vector(self, blobs_2d, no_kmeans):
        with pytest.raises(NonPositiveShape):
            select_model(blobs_2d, MmlConfig(k_high=4), weights=np.ones(150), seed=0)

    def test_random_priors_nan(self, blobs_2d, no_kmeans):
        alpha = np.r_[np.nan, np.ones(149)]
        with pytest.raises(NonPositiveShape):
            select_model(blobs_2d, MmlConfig(k_high=4), weights=(alpha, np.ones(150)), seed=0)


class TestInitialModelValidation:
    """A mismatched initial model is rejected before any sweep runs."""

    @pytest.fixture
    def no_sweep(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a sweep ran before the initial model was checked")

        monkeypatch.setattr("wdmix.model_selection._SelectionEngine.sweep", fail)

    def test_wrong_dimension(self, blobs_2d, no_sweep):
        init = model_from_parameters([np.zeros(3), np.ones(3)], [np.eye(3)] * 2, [0.5, 0.5])
        with pytest.raises(DimensionMismatch):
            select_model(blobs_2d, MmlConfig(k_high=2), initial_model=init, seed=0)

    @pytest.mark.parametrize("budget", [0, 50])
    def test_full_storage_for_diagonal_shape(self, blobs_2d, blobs_model, no_sweep, budget):
        config = MmlConfig(k_high=3, max_outer_iter=budget)
        with pytest.raises(DimensionMismatch):
            select_model(
                blobs_2d, config, covariance_shape="diagonal", initial_model=blobs_model, seed=0
            )

    def test_diagonal_storage_for_full_shape(self, blobs_2d, no_sweep):
        init = model_from_parameters(
            [np.zeros(2), np.full(2, 100.0)], [np.ones(2)] * 2, [0.5, 0.5], CovarianceShape.DIAGONAL
        )
        with pytest.raises(DimensionMismatch):
            select_model(blobs_2d, MmlConfig(k_high=2), initial_model=init, seed=0)


@pytest.fixture(scope="module")
def small_contaminated():
    return contaminate_uniform(generate_sim("easy", 120, seed=5), 0.3, seed=6)


class TestMatchesFullMatrixEngine:
    """The cached engine reproduces the full-matrix oracle bit for bit."""

    @staticmethod
    def _assert_identical(got, want):
        assert got.objective_trace == want.objective_trace
        assert got.kplus_history == want.kplus_history
        assert got.checkpoint_lengths == want.checkpoint_lengths
        assert got.annihilation_log == want.annihilation_log
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert got.best_length == want.best_length
        gm, wm = got.final_model, want.final_model
        assert gm.covariance_shape == wm.covariance_shape
        assert np.array_equal(gm.proportions, wm.proportions)
        for a, b in zip(gm.components, wm.components, strict=True):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.covariance, b.covariance)
            assert a.log_det == b.log_det
        assert np.array_equal(got.final_responsibilities.matrix, want.final_responsibilities.matrix)
        gw, ww = got.final_weights, want.final_weights
        assert gw.mode == ww.mode
        for name in ("fixed_w", "post_a", "post_b", "post_mean", "marginal_mean"):
            a, b = getattr(gw, name), getattr(ww, name)
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", ["full", "diagonal"])
    @pytest.mark.parametrize("rates", ["carried", "prior"])
    @pytest.mark.parametrize("mode", ["random", "fixed"])
    @pytest.mark.parametrize("dataset", ["blobs_2d", "small_contaminated"])
    def test_bit_identical(self, request, dataset, mode, rates, shape):
        data = request.getfixturevalue(dataset)
        config = MmlConfig(k_high=6, weight_mode=mode, assignment_rates=rates)
        got = select_model(data, config, covariance_shape=shape, seed=2, restarts=3)
        want = reference_select_model(data, config, covariance_shape=shape, seed=2, restarts=3)
        self._assert_identical(got, want)
        assert got.best_length == message_length(
            data, got.final_model, got.final_responsibilities, got.final_weights
        )

    @pytest.mark.parametrize("mode", ["random", "fixed"])
    def test_bit_identical_when_budget_runs_out(self, small_contaminated, mode):
        config = MmlConfig(k_high=6, weight_mode=mode, max_outer_iter=3)
        got = select_model(small_contaminated, config, seed=4, restarts=2)
        want = reference_select_model(small_contaminated, config, seed=4, restarts=2)
        assert not got.converged and got.iterations == 3
        self._assert_identical(got, want)
