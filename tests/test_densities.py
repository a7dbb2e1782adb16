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
    _pairwise_sum,
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

from reference_em import _maha_matrix, _normalize


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


def _mixed_terms(gen, shape):
    """Mixed signs over some twenty orders of magnitude."""
    return gen.normal(size=shape) * 10.0 ** gen.uniform(-10.0, 10.0, size=shape)


def _random_model(gen, d, k, shape):
    means = [gen.normal(size=d) * 5.0 for _ in range(k)]
    if shape == "diagonal":
        covs = [gen.uniform(0.2, 4.0, size=d) for _ in range(k)]
    else:
        factors = [gen.normal(size=(d, d)) for _ in range(k)]
        covs = [f @ f.T + 0.5 * np.eye(d) for f in factors]
    return model_from_parameters(means, covs, np.full(k, 1.0 / k), shape)


class TestSummationOrder:
    """The column sweeps add in NumPy's own order; a NumPy that changes it fails here."""

    @pytest.mark.parametrize("m", [*range(1, 10), 15, 16, 20, 21, 127, 128, 129, 300])
    def test_pairwise_sum_matches_numpy(self, m):
        gen = np.random.default_rng(m)
        rows = _mixed_terms(gen, (257, m))
        assert _pairwise_sum(list(rows.T)).tobytes() == np.sum(rows, axis=1).tobytes()
        stacked = np.asfortranarray(_mixed_terms(gen, (m, 257)))
        assert _pairwise_sum(list(stacked)).tobytes() == np.sum(stacked, axis=0).tobytes()

    @pytest.mark.parametrize("k", [1, 3, 7, 8, 15])
    @pytest.mark.parametrize("n", [200, 5_000])  # the second at n * K >= 32,768 for K = 7, 8, 15
    def test_normalize_matches_oracle(self, k, n):
        gen = np.random.default_rng(10 * k + n)
        log_weighted = gen.normal(size=(n, k)) * 40.0 - 300.0
        if k > 1:
            log_weighted[gen.random((n, k)) < 0.3] = -np.inf
            log_weighted[:, 0] = np.maximum(log_weighted[:, 0], -1e3)  # one finite entry per row
            log_weighted[:, -1] = -np.inf  # a component with zero proportion
        eta, log_norm = normalize_log_responsibilities(log_weighted)
        assert eta.tobytes() == _normalize(log_weighted).matrix.tobytes()
        shift = np.max(log_weighted, axis=1, keepdims=True)
        want_norm = np.log(np.sum(np.exp(log_weighted - shift), axis=1)) + shift[:, 0]
        assert log_norm.tobytes() == want_norm.tobytes()

    @pytest.mark.parametrize("shape", ["full", "diagonal"])
    @pytest.mark.parametrize("d", [1, 3, 7, 8, 15])
    def test_mahalanobis_matrix_matches_oracle(self, d, shape):
        gen = np.random.default_rng(d)
        model = _random_model(gen, d, 3, shape)
        points = gen.normal(size=(11_000, d)) * 4.0  # n * K >= 32,768
        want = _maha_matrix(points, model)
        assert mahalanobis_matrix(points, model.components).tobytes() == want.tobytes()
