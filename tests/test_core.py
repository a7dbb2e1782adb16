"""Validation, container, and serialization behaviour of the core types."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wdmix import (
    CovarianceShape,
    Dataset,
    FitConfig,
    GaussianComponent,
    MixtureModel,
    Responsibilities,
    WeightMode,
    WeightState,
    model_from_parameters,
    validate_dataset,
)
from wdmix.core import (
    _broadcast,
    _factor_symmetric,
    as_dataset,
    factor_covariance,
    floored_covariance,
    weighted_component,
)
from wdmix.errors import (
    DimensionMismatch,
    LengthMismatch,
    NaNInput,
    NonPositiveDefinite,
    NonPositiveShape,
    NonPositiveWeight,
    NonRectangular,
)


class TestValidateDataset:
    def test_accepts_lists(self):
        ds = validate_dataset([[1, 2], [3, 4], [5, 6]])
        assert isinstance(ds, Dataset)
        assert ds.n == 3 and ds.d == 2
        assert ds.points.dtype == np.float64

    def test_points_are_read_only(self):
        ds = validate_dataset([[1.0, 2.0]])
        with pytest.raises(ValueError):
            ds.points[0, 0] = 9.0

    def test_points_are_a_c_ordered_float64_copy(self):
        # Results depend on the points' layout (NumPy sums F-ordered rows in
        # sequence), so every Dataset holds its own C-ordered float64 copy.
        raw = np.asfortranarray(np.arange(24.0).reshape(8, 3))
        for ds in (validate_dataset(raw), Dataset(points=raw), Dataset(points=raw.astype(np.float32))):
            assert ds.points.dtype == np.float64 and ds.points.flags.c_contiguous
            assert not ds.points.flags.writeable
            assert np.array_equal(ds.points, raw)
        ds = Dataset(points=raw)
        raw[0, 0] = 99.0
        assert ds.points[0, 0] == 0.0

    def test_rejects_ragged(self):
        with pytest.raises(NonRectangular):
            validate_dataset([[1.0, 2.0], [3.0]])

    def test_rejects_non_numeric(self):
        with pytest.raises(NonRectangular):
            validate_dataset([["a", "b"], ["c", "d"]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(NonRectangular):
            validate_dataset([1.0, 2.0, 3.0])
        with pytest.raises(NonRectangular):
            validate_dataset(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(NonRectangular):
            validate_dataset(np.empty((0, 2)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(NaNInput):
            validate_dataset([[1.0, np.nan]])
        with pytest.raises(NaNInput):
            validate_dataset([[np.inf, 1.0]])

    def test_side_array_lengths(self):
        with pytest.raises(LengthMismatch):
            validate_dataset([[1.0, 2.0]], labels=[0, 1])
        with pytest.raises(LengthMismatch):
            validate_dataset([[1.0, 2.0]], outlier_flag=[True, False])

    def test_modality_tags_checked(self):
        ds = validate_dataset([[0.0, 0.0], [1.0, 1.0]], modality=["a", "v"])
        assert ds.modality.tolist() == ["a", "v"]
        with pytest.raises(LengthMismatch):
            validate_dataset([[0.0, 0.0], [1.0, 1.0]], modality=["a", "x"])

    def test_as_dataset_passthrough(self):
        ds = validate_dataset([[1.0, 2.0]])
        assert as_dataset(ds) is ds
        wrapped = as_dataset(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert isinstance(wrapped, Dataset) and wrapped.n == 2


class TestDatasetChecksItsOwnInput:
    """The constructor applies validate_dataset's rules; there is no second layer."""

    @pytest.mark.parametrize(
        "name, raw, dtype, want",
        [
            ("labels", [0, 1], np.int64, [0, 1]),
            ("labels", np.array([0.0, 1.0]), np.int64, [0, 1]),
            ("modality", ["a", "v"], "U1", ["a", "v"]),
            ("outlier_flag", np.array([1, 0]), bool, [True, False]),
        ],
    )
    def test_side_arrays_become_read_only_copies(self, name, raw, dtype, want):
        direct = getattr(Dataset(np.zeros((2, 2)), **{name: raw}), name)
        via = getattr(validate_dataset(np.zeros((2, 2)), **{name: raw}), name)
        for side in (direct, via):
            assert side.dtype == dtype and not side.flags.writeable
            assert side.tolist() == want

    def test_integer_points(self):
        ds = Dataset(np.arange(6).reshape(3, 2))
        assert ds.points.dtype == np.float64 and ds.points.flags.c_contiguous
        assert not ds.points.flags.writeable
        assert ds.points.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]

    @pytest.mark.parametrize("make", [Dataset, validate_dataset])
    def test_labels_beyond_int64(self, make):
        with pytest.raises(NonRectangular, match="labels"):
            make(np.zeros((2, 2)), labels=[0, 10**20])

    # The dtype cast would change each value: NaN to the int64 minimum (with
    # only a RuntimeWarning), 0.5 to 0, 'audio' to 'a', 2 and 'no' to True.
    @pytest.mark.parametrize("make", [Dataset, validate_dataset])
    @pytest.mark.parametrize(
        "name, raw, error",
        [
            ("labels", np.array([np.nan, 1.0]), NonRectangular),
            ("labels", np.array([0.5, 1.5]), NonRectangular),
            ("labels", np.array([1e20, 1.0]), NonRectangular),
            ("modality", ["audio", "video"], LengthMismatch),
            ("outlier_flag", [2, 0.5], NonRectangular),
            ("outlier_flag", ["no", "no"], NonRectangular),
        ],
        ids=["nan_label", "half_label", "label_beyond_int64", "long_tag", "flag_2", "flag_no"],
    )
    def test_values_a_cast_would_change(self, make, name, raw, error):
        with pytest.raises(error, match=name):
            make(np.zeros((2, 2)), **{name: raw})


class TestFlooredCovariance:
    def test_adds_relative_ridge(self):
        cov = np.array([[2.0, 0.5], [0.5, 4.0]])
        out = floored_covariance(cov, 1.0)
        ridge = 1e-10 * 3.0  # mean of the diagonal
        assert out[0, 0] == pytest.approx(2.0 + ridge, rel=0, abs=1e-25)
        assert out[1, 1] == pytest.approx(4.0 + ridge, rel=0, abs=1e-25)
        assert out[0, 1] == 0.5

    def test_zero_matrix_uses_fallback(self):
        out = floored_covariance(np.zeros((2, 2)), 5.0)
        assert np.allclose(np.diagonal(out), 1e-10 * 5.0)
        np.linalg.cholesky(out)  # positive-definite

    def test_diagonal_storage(self):
        out = floored_covariance(np.array([1.0, 3.0]), 1.0)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(1.0 + 2e-10)


class TestGaussianComponent:
    def test_log_det_matches_slogdet(self):
        cov = np.array([[4.0, 1.0], [1.0, 3.0]])
        comp = GaussianComponent(np.zeros(2), cov)
        _, expected = np.linalg.slogdet(cov)
        assert comp.log_det == pytest.approx(expected, rel=1e-14)
        assert np.allclose(comp.chol @ comp.chol.T, cov)

    def test_diagonal_component(self):
        comp = GaussianComponent(np.zeros(3), np.array([1.0, 4.0, 9.0]))
        assert comp.is_diagonal
        assert comp.log_det == pytest.approx(np.log(36.0))
        assert np.allclose(comp.full_covariance(), np.diag([1.0, 4.0, 9.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(NonPositiveDefinite):
            GaussianComponent(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NonPositiveDefinite):
            GaussianComponent(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NonPositiveDefinite):
            GaussianComponent(np.zeros(2), np.array([-1.0, 1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GaussianComponent(np.zeros(3), np.eye(2))


class TestFactorisation:
    """``factor_covariance`` validates; ``_factor_symmetric`` is its arithmetic, used inside the sweep."""

    @staticmethod
    def _spd(d, seed):
        g = np.random.default_rng(seed).normal(size=(d, d + 2))
        return g @ g.T / (d + 2) + 0.1 * np.eye(d)

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    @pytest.mark.parametrize("seed", range(5))
    def test_core_equals_validating_path_bit_for_bit(self, d, seed):
        full = self._spd(d, seed)
        full = (full + full.T) / 2.0  # exactly symmetric
        for cov in (full, full.diagonal().copy()):
            chol, log_det = _factor_symmetric(cov)
            want_chol, want_log_det = factor_covariance(cov)
            assert chol.tobytes() == want_chol.tobytes()
            assert log_det == want_log_det
        # The same bits as the written-out wrapper form of the log-determinant.
        chol, log_det = _factor_symmetric(full)
        assert chol.tobytes() == np.linalg.cholesky(full).tobytes()
        assert log_det == 2.0 * float(np.sum(np.log(np.diagonal(chol))))
        assert _factor_symmetric(full.diagonal().copy())[1] == float(np.sum(np.log(full.diagonal())))

    @pytest.mark.parametrize(
        "cov",
        [
            np.array([[1.0, 2.0], [2.0, 1.0]]),
            -np.eye(3),
            np.zeros((2, 2)),
            np.array([-1.0, 1.0]),
            np.array([0.0, 2.0]),
        ],
        ids=["indefinite", "negative_definite", "zero", "negative_variance", "zero_variance"],
    )
    def test_core_raises_domain_error(self, cov):
        with pytest.raises(NonPositiveDefinite):
            _factor_symmetric(cov)

    def test_symmetry_is_checked_only_by_the_validating_path(self):
        cov = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(NonPositiveDefinite, match="symmetric"):
            factor_covariance(cov)
        chol, _ = _factor_symmetric(cov)
        assert np.array_equal(chol, np.linalg.cholesky(cov))


def _lapack_factor(cov):
    """Today's LAPACK route at d = 2: the factor and log-det bytes, or the error raised."""
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return NonPositiveDefinite
    return chol.tobytes(), 2.0 * float(np.log(np.diagonal(chol)).sum())


def _closed_factor(cov):
    try:
        chol, log_det = _factor_symmetric(cov)
    except NonPositiveDefinite:
        return NonPositiveDefinite
    assert chol.flags.c_contiguous and chol.dtype == np.float64
    return chol.tobytes(), log_det


def _same(got, want):
    if want is NonPositiveDefinite or got is NonPositiveDefinite:
        return got is want
    return got[0] == want[0] and (got[1] == want[1] or math.isnan(got[1]) and math.isnan(want[1]))


_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, -1.0, math.inf, -math.inf, math.nan])


class TestClosedForm2x2:
    """At d = 2 the factor is written out; it must equal ``np.linalg.cholesky`` bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-20.0, 20.0),
        corr=st.floats(-1.0, 1.0),
        off_sign=st.sampled_from([1.0, -1.0]),
    )
    @example(seed=0, log_scale=0.0, corr=0.0, off_sign=-1.0)  # a -0.0 off-diagonal
    @example(seed=0, log_scale=0.0, corr=1.0, off_sign=1.0)  # singular up to rounding
    @example(seed=0, log_scale=20.0, corr=-1.0 + 1e-15, off_sign=1.0)
    def test_spd_matrices(self, seed, log_scale, corr, off_sign):
        gen = np.random.default_rng(seed)
        sd = math.exp(log_scale) * np.exp(gen.uniform(-1.0, 1.0, 2))
        a21 = off_sign * (corr * sd[0] * sd[1])
        cov = np.array([[sd[0] ** 2, a21], [a21, sd[1] ** 2]])
        assert _same(_closed_factor(cov), _lapack_factor(cov))

    @settings(max_examples=300, deadline=None)
    @given(
        a11=st.floats(allow_nan=True, allow_infinity=True) | _SPECIAL,
        a21=st.floats(allow_nan=True, allow_infinity=True) | _SPECIAL,
        a22=st.floats(allow_nan=True, allow_infinity=True) | _SPECIAL,
    )
    @example(a11=5e-324, a21=0.0, a22=1.0)  # a subnormal pivot
    @example(a11=1.0, a21=math.inf, a22=1.0)  # an infinite a21: the second pivot is -inf
    @example(a11=math.inf, a21=-1.0, a22=1.0)  # a zero reciprocal scales a21 to +0.0
    @example(a11=math.nan, a21=1.0, a22=1.0)  # NaN passes on into the factor
    @example(a11=-0.0, a21=0.0, a22=1.0)
    def test_any_entries_and_errors(self, a11, a21, a22):
        cov = np.array([[a11, 7.0], [a21, a22]])  # the upper triangle is never read
        assert _same(_closed_factor(cov), _lapack_factor(cov))

    def test_reads_the_lower_triangle_of_any_layout(self):
        cov = np.asfortranarray([[4.0, 0.0], [1.0, 3.0]])
        assert _same(_closed_factor(cov), _lapack_factor(np.ascontiguousarray(cov)))


class TestMStepArithmetic:
    """The sweep's M-step helpers give the bits of their plain forms."""

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_broadcast_equals_numpy_order(self, d):
        gen = np.random.default_rng(d)
        points, mean, w = gen.normal(size=(301, d)), gen.normal(size=d), gen.random(301)
        for ufunc, other in ((np.subtract, mean[None, :]), (np.multiply, w[:, None])):
            got = _broadcast(ufunc, points, other)
            assert got.flags.c_contiguous
            assert got.tobytes() == ufunc(points, other).tobytes()

    @pytest.mark.parametrize("shape", ["full", "diagonal"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_weighted_component_equals_written_out_form(self, shape, d):
        gen = np.random.default_rng(7)
        points, omega = gen.normal(size=(500, d)), gen.random(500)
        mu, cov, diff = weighted_component(points, omega, omega.sum(), 300.0, CovarianceShape(shape), 1.0)
        want_mu = omega @ points / omega.sum()
        want_diff = points - want_mu
        if shape == "full":
            scatter = (want_diff * omega[:, None]).T @ want_diff / 300.0
        else:
            scatter = omega @ (want_diff * want_diff) / 300.0
        assert mu.tobytes() == want_mu.tobytes()
        assert diff.tobytes() == want_diff.tobytes()
        assert cov.tobytes() == floored_covariance(scatter, 1.0).tobytes()

    def test_floored_covariance_leaves_its_input_alone(self):
        cov = np.asfortranarray([[2.0, 0.5], [0.5, 4.0]])
        out = floored_covariance(cov, 1.0)
        assert cov[0, 0] == 2.0 and out[0, 0] > 2.0 and out[1, 1] > 4.0



class TestMixtureModel:
    def test_free_params_per_component(self):
        full = model_from_parameters([np.zeros(2)], [np.eye(2)], [1.0])
        assert full.free_params_per_component == 5  # 2 mean + 3 covariance
        diag = model_from_parameters(
            [np.zeros(2)], [np.ones(2)], [1.0], CovarianceShape.DIAGONAL
        )
        assert diag.free_params_per_component == 4
        full5 = model_from_parameters([np.zeros(5)], [np.eye(5)], [1.0])
        assert full5.free_params_per_component == 20  # d(d+3)/2

    def test_zero_proportions_allowed(self):
        model = model_from_parameters(
            [np.zeros(2), np.ones(2)], [np.eye(2), np.eye(2)], [1.0, 0.0]
        )
        assert model.proportions[1] == 0.0

    def test_proportions_must_sum_to_one(self):
        with pytest.raises(NonPositiveWeight):
            model_from_parameters([np.zeros(2)], [np.eye(2)], [0.9])
        with pytest.raises(NonPositiveWeight):
            model_from_parameters(
                [np.zeros(2), np.ones(2)], [np.eye(2), np.eye(2)], [1.3, -0.3]
            )

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            model_from_parameters([np.zeros(2), np.zeros(3)], [np.eye(2), np.eye(3)], [0.5, 0.5])

    def test_storage_must_match_shape(self):
        comp = GaussianComponent(np.zeros(2), np.ones(2))
        with pytest.raises(DimensionMismatch):
            MixtureModel((comp,), np.array([1.0]), CovarianceShape.FULL)

    def test_dict_round_trip(self):
        model = model_from_parameters(
            [np.array([1.0, 2.0]), np.array([-3.0, 0.5])],
            [np.array([[2.0, 0.3], [0.3, 1.0]]), np.eye(2) * 4.0],
            [0.25, 0.75],
        )
        clone = MixtureModel.from_dict(model.to_dict())
        assert np.array_equal(clone.proportions, model.proportions)
        for a, b in zip(clone.components, model.components):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.full_covariance(), b.full_covariance())

    def test_diagonal_round_trip(self):
        model = model_from_parameters(
            [np.zeros(2)], [np.array([2.0, 5.0])], [1.0], CovarianceShape.DIAGONAL
        )
        clone = MixtureModel.from_dict(model.to_dict())
        assert clone.covariance_shape == CovarianceShape.DIAGONAL
        assert clone.components[0].is_diagonal
        assert np.array_equal(clone.components[0].covariance, np.array([2.0, 5.0]))

    @pytest.mark.parametrize(
        "mean, cov", [([np.nan, 0.0], np.eye(2)), ([0.0, 0.0], np.diag([1.0, np.inf]))], ids=["mean", "covariance"]
    )
    def test_non_finite_parameters_rejected(self, mean, cov):
        with pytest.raises(NaNInput):
            model_from_parameters([mean], [cov], [1.0])
        payload = {
            "schema_version": 1,
            "covariance_shape": "full",
            "proportions": [1.0],
            "components": [{"mean": list(mean), "covariance": cov.tolist()}],
        }
        # Python's json module writes and reads NaN and Infinity, so a model file can hold them.
        with pytest.raises(NaNInput):
            MixtureModel.from_dict(json.loads(json.dumps(payload)))

    def test_nan_proportions_rejected(self):
        with pytest.raises(NonPositiveWeight):
            model_from_parameters([np.zeros(2)], [np.eye(2)], [np.nan])

    def test_from_dict_rejects_unknown_schema(self):
        payload = model_from_parameters([np.zeros(1)], [np.eye(1)], [1.0]).to_dict()
        payload["schema_version"] = 99
        with pytest.raises(DimensionMismatch):
            MixtureModel.from_dict(payload)


class TestWeightState:
    def test_fixed_mode(self):
        state = WeightState.fixed([1.0, 2.0, 0.5])
        assert state.mode == WeightMode.FIXED
        assert state.n == 3
        with pytest.raises(NonPositiveWeight):
            WeightState.fixed([1.0, 0.0])
        with pytest.raises(NonPositiveWeight):
            WeightState.fixed([1.0, np.inf])

    def test_random_mode_priors(self):
        state = WeightState.random_prior([4.0, 1.0], [2.0, 1.0])
        assert state.mode == WeightMode.RANDOM
        assert state.n == 2
        with pytest.raises(NonPositiveShape):
            WeightState.random_prior([1.0, -1.0], [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            WeightState.random_prior([1.0, 1.0], [1.0])

    def test_posterior_attachment(self):
        state = WeightState.random_prior([4.0, 1.0], [2.0, 1.0])
        post = state.with_posterior([5.0, 2.0], [[2.5, 5.0], [1.0, 4.0]])
        assert np.allclose(post.post_mean, [[2.0, 1.0], [2.0, 0.5]])
        marg = post.with_marginal([1.5, 1.75])
        assert marg.marginal_mean.tolist() == [1.5, 1.75]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_marginal_means_must_be_positive_and_finite(self, bad):
        post = WeightState.random_prior([4.0, 1.0], [2.0, 1.0]).with_posterior([5.0, 2.0], [[2.5], [1.0]])
        with pytest.raises(NonPositiveWeight):
            post.with_marginal([1.5, bad])

    def test_averaged_means_of_f_ordered_rates_at_elision_size(self):
        # The selection engine records weights from F-ordered distance columns.
        # At n * K >= 32,768 NumPy may reuse a temporary's buffer and layout,
        # and with K >= 8 a C-ordered row sums pairwise where an F-ordered one
        # does not, so the bits must equal those of C-ordered copies.
        gen = np.random.default_rng(11)
        n, k = 4_096, 10
        alpha, beta = gen.uniform(0.25, 2.0, size=(2, n))
        rates = beta[:, None] + 0.5 * np.asfortranarray(gen.exponential(3.0, size=(n, k)))
        eta = gen.dirichlet(np.ones(k), size=n)
        prior = WeightState.random_prior(alpha, beta)
        state = prior.with_posterior(alpha + 4.0, rates)
        assert state.post_b.flags.f_contiguous
        c_state = prior.with_posterior(alpha + 4.0, np.ascontiguousarray(rates))
        got = state.averaged_means(eta)
        assert got.tobytes() == c_state.averaged_means(eta).tobytes()
        assert got.tobytes() == np.sum(eta * c_state.post_mean, axis=1).tobytes()


class TestResponsibilities:
    def test_rows_must_sum_to_one(self):
        Responsibilities(np.array([[0.25, 0.75], [1.0, 0.0]]))
        with pytest.raises(DimensionMismatch):
            Responsibilities(np.array([[0.5, 0.4]]))
        with pytest.raises(DimensionMismatch):
            Responsibilities(np.array([[1.2, -0.2]]))

    def test_hard_assignments(self):
        eta = Responsibilities(np.array([[0.9, 0.1], [0.3, 0.7], [0.5, 0.5]]))
        assert eta.hard_assignments().tolist() == [0, 1, 0]


class TestFitConfig:
    def test_defaults(self):
        config = FitConfig()
        assert config.max_iter == 400
        assert config.rel_tol == pytest.approx(0.01)

    def test_rejects_negative(self):
        with pytest.raises(DimensionMismatch):
            FitConfig(max_iter=-1)
        with pytest.raises(DimensionMismatch, match="max_iter must be an integer"):
            FitConfig(max_iter=2.5)  # failed with a raw TypeError at the fit
        with pytest.raises(DimensionMismatch):
            FitConfig(rel_tol=-0.1)
        with pytest.raises(DimensionMismatch):
            FitConfig(rel_tol=float("nan"))  # would run out the iteration budget
