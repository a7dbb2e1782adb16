"""Message-length selection: proportion truncation, code length, full search."""

import math
import warnings

import numpy as np
import pytest

from reference_selection import MatrixRateEngine, lapack_factor, reference_select_model
from wdmix import (
    CovarianceShape,
    GaussianComponent,
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
from wdmix import model_selection
from wdmix.densities import normalize_log_responsibilities
from wdmix.model_selection import _SHIFT_MARGIN, _SelectionEngine
from wdmix.errors import (
    AllAnnihilated,
    DegenerateRow,
    DimensionMismatch,
    EmptyCluster,
    EmptyInput,
    LengthMismatch,
    NaNInput,
    NonPositiveArgument,
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sum_rejected(self, bad):
        # Unchecked, [nan, 10] gave [nan, nan] under a RuntimeWarning and [inf, 10] gave [nan, 0].
        with pytest.raises(NaNInput):
            truncated_proportions([bad, 10.0], 2)


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
            MmlConfig(k_high=3, epsilon=float("nan"))  # would run out the sweep budget
        with pytest.raises(DimensionMismatch):
            MmlConfig(k_high=3, assignment_rates="other")
        # k_high=2.5 failed with a raw TypeError in the selection; the other two were accepted.
        for field in ({"k_high": 2.5}, {"k_high": 3, "k_low": 1.5}, {"k_high": 3, "max_outer_iter": 2.5}):
            with pytest.raises(DimensionMismatch, match="must be an integer"):
                MmlConfig(**field)

    def test_numpy_integers_are_counts(self):
        assert MmlConfig(k_high=np.int64(3), k_low=np.int32(2), max_outer_iter=np.uint8(5)).max_outer_iter == 5

    def test_mode_coercion(self):
        config = MmlConfig(k_high=3, weight_mode="fixed")
        assert config.weight_mode is WeightMode.FIXED


class TestSelectModel:
    def test_rejects_fractional_restarts(self, blobs_2d):
        with pytest.raises(NonPositiveArgument, match="restarts"):
            select_model(blobs_2d, MmlConfig(k_high=3), seed=0, restarts=2.5)

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

    def test_zero_budget_reports_the_k_means_start(self, blobs_2d):
        config = MmlConfig(k_high=6, max_outer_iter=0)
        report = select_model(blobs_2d, config, seed=0)
        assert report.iterations == 0
        assert report.objective_trace == () and report.kplus_history == ()
        assert report.checkpoint_lengths == (report.best_length,)
        assert not report.converged
        assert report.final_model.n_components == 6

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

    def test_k_means_short_of_k_high_raises(self):
        # k-means leaves a cluster empty here; selection used to go on from
        # seven components and return K=1.
        points = np.random.default_rng(0).normal(size=(200, 2)) + 1e8
        with pytest.raises(EmptyCluster, match="k-means left cluster"):
            select_model(points, MmlConfig(k_high=8), seed=0)

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

    @pytest.mark.parametrize("pair", [list, np.array], ids=["list", "array_2xn"])
    def test_random_priors_only_as_a_tuple(self, blobs_2d, no_kmeans, pair):
        # The fits take an (alpha, beta) tuple or a WeightState, and so does selection.
        priors = pair([np.ones(150), np.ones(150)])
        with pytest.raises(NonPositiveShape):
            select_model(blobs_2d, MmlConfig(k_high=4), weights=priors, seed=0)
        with pytest.raises(NonPositiveShape):
            em_weighted.fit(blobs_2d, None, priors)

    def test_random_priors_nan(self, blobs_2d, no_kmeans):
        alpha = np.r_[np.nan, np.ones(149)]
        with pytest.raises(NonPositiveShape):
            select_model(blobs_2d, MmlConfig(k_high=4), weights=(alpha, np.ones(150)), seed=0)


@pytest.fixture(scope="module")
def small_contaminated():
    return contaminate_uniform(generate_sim("easy", 120, seed=5), 0.3, seed=6)


class TestMatchesFullMatrixEngine:
    """The cached engine reproduces the full-matrix oracle.

    Every discrete outcome is equal: K+ history, checkpoints, annihilations,
    sweep count and convergence.  Every float agrees with the oracle's to
    a relative 1e-12, element by element: the engine sums responsibilities
    from a shifted exponential cache, in another order than the oracle's
    row normalisation.  The one exception is the proportion recorded at an
    annihilation, which is checked to 2e-12: a proportion just above the
    support threshold is a small difference of sums and carries the
    reordering with less relative precision.  (The test names predate the
    cache.)
    """

    @staticmethod
    def _assert_matches(got, want):
        def close(a, b, rtol=1e-12):
            np.testing.assert_allclose(a, b, rtol=rtol, atol=0.0)

        assert got.kplus_history == want.kplus_history
        assert len(got.checkpoint_lengths) == len(want.checkpoint_lengths)
        assert [(e.iteration, e.component) for e in got.annihilation_log] == [
            (e.iteration, e.component) for e in want.annihilation_log
        ]
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        close(got.objective_trace, want.objective_trace)
        close(got.checkpoint_lengths, want.checkpoint_lengths)
        close(
            [e.proportion for e in got.annihilation_log],
            [e.proportion for e in want.annihilation_log],
            rtol=2e-12,
        )
        close(got.best_length, want.best_length)
        gm, wm = got.final_model, want.final_model
        assert gm.covariance_shape == wm.covariance_shape
        close(gm.proportions, wm.proportions)
        for a, b in zip(gm.components, wm.components, strict=True):
            close(a.mean, b.mean)
            close(a.covariance, b.covariance)
            close(a.log_det, b.log_det)
        close(got.final_responsibilities.matrix, want.final_responsibilities.matrix)
        gw, ww = got.final_weights, want.final_weights
        assert gw.mode == ww.mode
        for name in ("fixed_w", "post_a", "post_b", "post_mean", "marginal_mean"):
            a, b = getattr(gw, name), getattr(ww, name)
            assert (a is None) == (b is None)
            if a is not None:
                close(a, b)

    @pytest.mark.parametrize("shape", ["full", "diagonal"])
    @pytest.mark.parametrize("rates", ["carried", "prior"])
    @pytest.mark.parametrize("mode", ["random", "fixed"])
    @pytest.mark.parametrize("dataset", ["blobs_2d", "small_contaminated"])
    def test_bit_identical(self, request, dataset, mode, rates, shape):
        data = request.getfixturevalue(dataset)
        config = MmlConfig(k_high=6, weight_mode=mode, assignment_rates=rates)
        got = select_model(data, config, covariance_shape=shape, seed=2, restarts=3)
        want = reference_select_model(data, config, covariance_shape=shape, seed=2, restarts=3)
        self._assert_matches(got, want)
        assert got.best_length == message_length(
            data, got.final_model, got.final_responsibilities, got.final_weights
        )

    @pytest.mark.parametrize("mode", ["random", "fixed"])
    def test_bit_identical_when_budget_runs_out(self, small_contaminated, mode):
        config = MmlConfig(k_high=6, weight_mode=mode, max_outer_iter=3)
        got = select_model(small_contaminated, config, seed=4, restarts=2)
        want = reference_select_model(small_contaminated, config, seed=4, restarts=2)
        assert not got.converged and got.iterations == 3
        self._assert_matches(got, want)

    # Budgets 0 and 1 stop before any stage settles; k_low = 3 stops after
    # forced annihilations, and k_low = k_high = 6 at the first settled stage
    # (with 5 components: one is annihilated in the first sweep).
    @pytest.mark.parametrize("k_low, budget", [(1, 0), (1, 1), (3, 2000), (6, 2000)])
    @pytest.mark.parametrize("mode", ["random", "fixed"])
    def test_bit_identical_at_the_stop_edges(self, small_contaminated, mode, k_low, budget):
        config = MmlConfig(k_high=6, k_low=k_low, max_outer_iter=budget, weight_mode=mode)
        got = select_model(small_contaminated, config, seed=4, restarts=2)
        want = reference_select_model(small_contaminated, config, seed=4, restarts=2)
        if budget < 2000:
            assert (got.iterations, got.converged) == (budget, False)
        else:
            assert got.converged and got.kplus_history[-1] <= k_low
        self._assert_matches(got, want)

    def test_matches_at_large_size_when_budget_runs_out(self):
        # n * K+ = 36,000: past NumPy's 256 KiB temporary-elision threshold.
        data = generate_sim("easy", 2400, seed=3)
        config = MmlConfig(k_high=15, max_outer_iter=5)
        got = select_model(data, config, seed=1, restarts=1)
        want = reference_select_model(data, config, seed=1, restarts=1)
        assert not got.converged and got.iterations == 5 and got.kplus_history[0] == 15
        self._assert_matches(got, want)


def _assert_same_bits(got, want):
    """Two FitReports hold the same floats, bit for bit, and the same discrete outcomes."""

    def same(a, b):
        assert np.asarray(a).dtype == np.asarray(b).dtype
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    for name in ("objective_trace", "checkpoint_lengths", "best_length", "kplus_history"):
        same(getattr(got, name), getattr(want, name))
    assert got.annihilation_log == want.annihilation_log
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    gm, wm = got.final_model, want.final_model
    same(gm.proportions, wm.proportions)
    for a, b in zip(gm.components, wm.components, strict=True):
        for name in ("mean", "covariance", "chol", "log_det"):
            same(getattr(a, name), getattr(b, name))
    same(got.final_responsibilities.matrix, want.final_responsibilities.matrix)
    for name in ("fixed_w", "prior_alpha", "prior_beta", "post_a", "post_b", "marginal_mean"):
        a, b = getattr(got.final_weights, name), getattr(want.final_weights, name)
        assert (a is None) == (b is None)
        if a is not None:
            same(a, b)


class TestSameBitsAsMatrixRates:
    """Per-component carried-rate kernels and the sweep's own factorisation change no bit.

    The reference run swaps in :class:`reference_selection.MatrixRateEngine`,
    which keeps the carried rates in one (n, K) matrix and rebuilds a kernel
    at every column recomputation, and factors every M-step covariance
    through ``np.linalg.cholesky`` (:func:`reference_selection.lapack_factor`),
    where the sweep writes out the 2 x 2 factor.  The d = 3 case runs each
    d rule's other side: LAPACK, and NumPy's own broadcast order.
    """

    @staticmethod
    def _pair(monkeypatch, data, config, **kwargs):
        got = select_model(data, config, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(model_selection, "_SelectionEngine", MatrixRateEngine)
            patch.setattr(model_selection, "_factor_symmetric", lapack_factor)
            want = select_model(data, config, **kwargs)
        _assert_same_bits(got, want)
        return got

    @pytest.mark.parametrize("shape", ["full", "diagonal"])
    @pytest.mark.parametrize("mode", ["random", "fixed"])
    def test_large_selection(self, monkeypatch, mode, shape):
        # n * K+ = 36,000: past NumPy's 256 KiB temporary-elision threshold.
        data = generate_sim("easy", 2400, seed=3)
        config = MmlConfig(k_high=15, weight_mode=mode, max_outer_iter=8)
        got = self._pair(monkeypatch, data, config, covariance_shape=shape, seed=1, restarts=1)
        assert got.kplus_history[0] == 15 and got.iterations == 8

    def test_converged_selection_with_annihilations(self, monkeypatch, small_contaminated):
        got = self._pair(monkeypatch, small_contaminated, MmlConfig(k_high=8), seed=2, restarts=3)
        assert got.converged and got.annihilation_log

    def test_three_dimensional_selection(self, monkeypatch):
        gen = np.random.default_rng(5)
        centres = np.array([[0.0, 0.0, 0.0], [8.0, 0.0, 2.0], [0.0, 9.0, -3.0]])
        points = np.vstack([gen.normal(c, 1.0, size=(150, 3)) for c in centres])
        data = contaminate_uniform(validate_dataset(points, labels=np.repeat([0, 1, 2], 150)), 0.2, seed=6)
        got = self._pair(monkeypatch, data, MmlConfig(k_high=6), seed=3, restarts=2)
        assert got.converged and got.annihilation_log and got.final_model.d == 3


def _cache_engine():
    """Engine on two clusters and an outlying point P, three unit components, unit weights."""
    gen = np.random.default_rng(4)
    points = np.vstack(
        [gen.normal(0.0, 1.0, (30, 2)), gen.normal((100.0, 0.0), 1.0, (30, 2)), [[0.0, 40.0]]]
    )
    data = validate_dataset(points)
    means = ([0.0, 0.0], [100.0, 0.0], [100.0, 0.0])
    init = model_from_parameters(means, [np.eye(2)] * 3, [0.4, 0.4, 0.2])
    config = MmlConfig(k_high=3, weight_mode="fixed")
    return _SelectionEngine(data, config, em_fixed._regime(data, np.ones(data.n))[1], init)


def _move(engine, k, mean):
    comp = GaussianComponent(np.asarray(mean, dtype=np.float64), np.eye(2))
    engine._store(k, comp.mean, comp.covariance, comp.factor, comp.log_det)


def _assert_cache_matches_full_normalisation(engine):
    r = engine._inverse_row_sums()
    act = engine.active
    want, _ = normalize_log_responsibilities(engine.log_dens[:, act] + np.log(engine.pis[act]))
    got = engine.E[:, act] * (engine.pis[act] * r[:, None])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(engine.pis[act] * (r @ engine.E)[act], want.sum(axis=0), rtol=1e-12, atol=0.0)


class TestShiftedCache:
    """Responsibilities from the shifted cache, through both rebuild triggers."""

    def test_incremental_update_and_both_rebuilds(self):
        engine = _cache_engine()
        _assert_cache_matches_full_normalisation(engine)
        shift = engine.shift

        _move(engine, 0, [0.5, 0.0])  # a small move keeps the shift
        _assert_cache_matches_full_normalisation(engine)
        assert engine.shift is shift

        # Component 2 moves onto P, whose log density rises ~800 nats above
        # its shift: the margin trigger.
        _move(engine, 2, [0.0, 40.0])
        _assert_cache_matches_full_normalisation(engine)
        assert engine.shift[60] - shift[60] > _SHIFT_MARGIN
        shift = engine.shift

        # Component 1 leaves the second cluster: no column rises above the
        # margin, but those rows' sums drop to ~exp(-5000): the floor trigger.
        _move(engine, 1, [-200.0, 0.0])
        assert np.max(engine._column(1)[:, 0] - shift) <= _SHIFT_MARGIN
        _assert_cache_matches_full_normalisation(engine)
        assert np.all(shift[30:60] - engine.shift[30:60] > 1000.0)

    def test_annihilated_column_is_zeroed(self):
        engine = _cache_engine()
        engine._inverse_row_sums()
        engine.drop(2)
        assert engine.active == [0, 1] and engine.pis[2] == 0.0
        assert not np.any(engine.E[:, 2])
        _assert_cache_matches_full_normalisation(engine)


def test_point_of_zero_density_raises_degenerate_row(blobs_2d, blobs_model):
    # The squared distance of a point at 1e160 overflows, so its log density
    # is -inf under every component.
    data = validate_dataset(np.vstack([blobs_2d.points, [[1e160, 1e160]]]))
    config = MmlConfig(k_high=3, weight_mode="fixed")
    kernel = em_fixed._regime(data, np.ones(151))[1]
    with np.errstate(over="ignore"), pytest.raises(DegenerateRow, match="point 150"):
        _SelectionEngine(data, config, kernel, blobs_model).sweep(0, [])
