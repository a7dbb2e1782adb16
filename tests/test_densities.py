"""Log-density primitives checked against scipy and closed forms."""

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln, logsumexp

from wdmix import (
    GaussianComponent,
    log_gamma_pdf,
    log_gaussian_scaled,
    log_pearson7,
    mahalanobis_sq,
    model_from_parameters,
)
from wdmix.densities import (
    log_mixture_density,
    mahalanobis_matrix,
    normalize_log_responsibilities,
    pearson7_log_matrix,
    scaled_gaussian_log_matrix,
)
from wdmix.errors import (
    DegenerateRow,
    DimensionMismatch,
    NonPositiveShape,
    NonPositiveWeight,
)


@pytest.fixture(scope="module")
def component_2d():
    return GaussianComponent(
        np.array([1.0, -2.0]), np.array([[3.0, 0.8], [0.8, 2.0]])
    )


class TestMahalanobis:
    def test_identity_covariance_is_euclidean(self):
        comp = GaussianComponent(np.zeros(3), np.eye(3))
        x = np.array([1.0, 2.0, 2.0])
        assert mahalanobis_sq(x, comp) == pytest.approx(9.0)

    def test_matches_explicit_inverse(self, component_2d, rng):
        pts = rng.normal(size=(20, 2)) * 3.0
        inv = np.linalg.inv(component_2d.full_covariance())
        diff = pts - component_2d.mean
        expected = np.einsum("ij,jk,ik->i", diff, inv, diff)
        assert np.allclose(mahalanobis_sq(pts, component_2d), expected, rtol=1e-12)

    def test_diagonal_component(self):
        comp = GaussianComponent(np.array([1.0, 1.0]), np.array([4.0, 0.25]))
        assert mahalanobis_sq(np.array([3.0, 2.0]), comp) == pytest.approx(1.0 + 4.0)

    def test_dimension_mismatch(self, component_2d):
        with pytest.raises(DimensionMismatch):
            mahalanobis_sq(np.zeros(3), component_2d)


class TestScaledGaussian:
    def test_unit_weight_matches_scipy(self, component_2d, rng):
        pts = rng.normal(size=(15, 2))
        expected = stats.multivariate_normal.logpdf(
            pts, mean=component_2d.mean, cov=component_2d.full_covariance()
        )
        assert np.allclose(log_gaussian_scaled(pts, component_2d, 1.0), expected, rtol=1e-12)

    def test_weight_scales_covariance(self, component_2d, rng):
        # N(x; mu, Sigma/w) should equal scipy with covariance divided by w.
        pts = rng.normal(size=(10, 2))
        for w in (0.3, 2.0, 17.0):
            expected = stats.multivariate_normal.logpdf(
                pts, mean=component_2d.mean, cov=component_2d.full_covariance() / w
            )
            assert np.allclose(log_gaussian_scaled(pts, component_2d, w), expected, rtol=1e-12)

    def test_per_point_weights(self, component_2d):
        pts = np.array([[0.0, 0.0], [2.0, -1.0]])
        w = np.array([0.5, 4.0])
        out = log_gaussian_scaled(pts, component_2d, w)
        for i in range(2):
            assert out[i] == pytest.approx(
                log_gaussian_scaled(pts[i], component_2d, float(w[i]))
            )

    def test_rejects_nonpositive_weight(self, component_2d):
        with pytest.raises(NonPositiveWeight):
            log_gaussian_scaled(np.zeros(2), component_2d, 0.0)
        with pytest.raises(NonPositiveWeight):
            log_gaussian_scaled(np.zeros(2), component_2d, -1.0)


class TestLogGamma:
    def test_matches_scipy(self, rng):
        w = rng.uniform(0.05, 5.0, size=30)
        for alpha, beta in ((0.5, 0.5), (2.0, 1.0), (9.0, 3.5)):
            expected = stats.gamma.logpdf(w, alpha, scale=1.0 / beta)
            assert np.allclose(log_gamma_pdf(w, alpha, beta), expected, rtol=1e-12)

    def test_mean_variance_convention(self, rng):
        # Shape alpha=w^2, rate beta=w gives mean w and unit variance.
        draws = stats.gamma.rvs(9.0, scale=1.0 / 3.0, size=200_000, random_state=1)
        assert np.mean(draws) == pytest.approx(3.0, abs=0.02)
        assert np.var(draws) == pytest.approx(1.0, abs=0.02)

    def test_rejects_bad_arguments(self):
        with pytest.raises(NonPositiveShape):
            log_gamma_pdf(1.0, 0.0, 1.0)
        with pytest.raises(NonPositiveShape):
            log_gamma_pdf(1.0, 1.0, -2.0)
        with pytest.raises(NonPositiveWeight):
            log_gamma_pdf(0.0, 1.0, 1.0)


class TestPearson7:
    def test_student_t_special_case(self):
        # With alpha = beta = nu/2 the density is multivariate Student-t with
        # nu degrees of freedom; in 1-D that is scipy's t distribution.
        comp = GaussianComponent(np.zeros(1), np.eye(1))
        for nu in (1.0, 3.0, 7.0):
            xs = np.linspace(-4.0, 4.0, 9)[:, None]
            expected = stats.t.logpdf(xs.ravel(), df=nu)
            got = log_pearson7(xs, comp, nu / 2.0, nu / 2.0)
            assert np.allclose(got, expected, rtol=1e-12)

    def test_closed_form(self, component_2d):
        x = np.array([2.0, 1.0])
        alpha, beta = 3.0, 1.5
        maha = mahalanobis_sq(x, component_2d)
        d = 2
        expected = (
            gammaln(alpha + d / 2.0)
            - gammaln(alpha)
            - 0.5 * component_2d.log_det
            - (d / 2.0) * (np.log(2.0 * np.pi) + np.log(beta))
            - (alpha + d / 2.0) * np.log1p(maha / (2.0 * beta))
        )
        assert log_pearson7(x, component_2d, alpha, beta) == pytest.approx(expected, rel=1e-14)

    def test_heavier_tail_for_smaller_alpha(self, component_2d):
        far = np.array([40.0, 40.0])
        fat = log_pearson7(far, component_2d, 0.5, 0.5)
        thin = log_pearson7(far, component_2d, 50.0, 50.0)
        assert fat > thin

    def test_rejects_bad_parameters(self, component_2d):
        with pytest.raises(NonPositiveShape):
            log_pearson7(np.zeros(2), component_2d, -1.0, 1.0)
        with pytest.raises(NonPositiveShape):
            log_pearson7(np.zeros(2), component_2d, 1.0, 0.0)


@pytest.fixture(scope="module")
def model():
    return model_from_parameters(
        [np.array([0.0, 0.0]), np.array([5.0, 5.0])],
        [np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]])],
        [0.4, 0.6],
    )


class TestMatrixForms:
    def test_mahalanobis_matrix_columns(self, model, rng):
        pts = rng.normal(size=(8, 2)) * 4.0
        mat = mahalanobis_matrix(pts, model.components)
        assert mat.shape == (8, 2)
        for j, comp in enumerate(model.components):
            assert np.allclose(mat[:, j], mahalanobis_sq(pts, comp))

    def test_scaled_gaussian_matrix(self, model, rng):
        pts = rng.normal(size=(6, 2)) * 4.0
        w = rng.uniform(0.5, 3.0, size=6)
        mat = scaled_gaussian_log_matrix(pts, model.components, w)
        for j, comp in enumerate(model.components):
            assert np.allclose(mat[:, j], log_gaussian_scaled(pts, comp, w))

    def test_pearson7_matrix_broadcasts(self, model, rng):
        pts = rng.normal(size=(5, 2)) * 4.0
        alpha = rng.uniform(1.0, 4.0, size=5)
        beta_full = rng.uniform(1.0, 4.0, size=(5, 2))
        mat = pearson7_log_matrix(pts, model.components, alpha, beta_full)
        for i in range(5):
            for j, comp in enumerate(model.components):
                assert mat[i, j] == pytest.approx(
                    log_pearson7(pts[i], comp, float(alpha[i]), float(beta_full[i, j]))
                )

    def test_normalize_rows(self, rng):
        logits = rng.normal(size=(10, 3)) * 30.0
        eta, log_norm = normalize_log_responsibilities(logits)
        assert np.allclose(eta.sum(axis=1), 1.0, atol=1e-15)
        assert np.allclose(eta, np.exp(logits - logsumexp(logits, axis=1, keepdims=True)))
        assert log_norm.shape == (10,)
        assert np.allclose(log_norm, logsumexp(logits, axis=1), rtol=1e-14)

    def test_normalize_rejects_dead_row(self):
        with pytest.raises(DegenerateRow):
            normalize_log_responsibilities(np.array([[0.0, 0.0], [-np.inf, -np.inf]]))

    def test_log_mixture_density(self, model, rng):
        pts = rng.normal(size=(7, 2)) * 4.0
        mat = scaled_gaussian_log_matrix(pts, model.components, 1.0)
        got = log_mixture_density(pts, model, mat)
        dens = 0.4 * np.exp(mat[:, 0]) + 0.6 * np.exp(mat[:, 1])
        assert np.allclose(got, np.log(dens), rtol=1e-12)

    def test_zero_proportion_component_ignored(self, rng):
        model = model_from_parameters(
            [np.zeros(2), np.full(2, 5.0)], [np.eye(2), np.eye(2)], [1.0, 0.0]
        )
        pts = rng.normal(size=(4, 2))
        mat = scaled_gaussian_log_matrix(pts, model.components, 1.0)
        got = log_mixture_density(pts, model, mat)
        assert np.allclose(got, mat[:, 0], rtol=1e-12)
