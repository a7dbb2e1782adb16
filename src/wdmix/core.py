"""Domain types shared by every engine in the package.

All value objects are frozen dataclasses holding read-only numpy arrays, so a
fitted model or a validated dataset can be passed around freely without
defensive copies.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    LengthMismatch,
    MalformedModel,
    NaNInput,
    NonPositiveDefinite,
    NonPositiveWeight,
    NonPositiveShape,
    NonRectangular,
)

# Relative ridge added to covariance diagonals whenever a covariance is
# (re)estimated; keeps Cholesky factorisations alive for collapsing
# components.
COVARIANCE_FLOOR_REL = 1e-10

_SYMMETRY_RTOL = 1e-12
_PROPORTION_ATOL = 1e-10

# Side arrays: dtype, the dtype kind whose every value the cast keeps, the test a
# value passes when the cast keeps it, the rule, the error.
_SIDE_ARRAYS = {
    "labels": (np.int64, "i", lambda v: int(v) == v and -(2**63) <= v < 2**63, "whole numbers in int64", NonRectangular),
    "modality": ("U1", None, lambda v: v in ("a", "v"), "'a' or 'v'", LengthMismatch),
    "outlier_flag": (bool, "b", lambda v: v in (0, 1), "booleans, 0 or 1", NonRectangular),
}


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    out = np.array(values, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


class CovarianceShape(str, enum.Enum):
    """Parameterisation of component covariances."""

    FULL = "full"
    DIAGONAL = "diagonal"


class WeightMode(str, enum.Enum):
    """Whether point weights are fixed values or gamma random variables."""

    FIXED = "fixed"
    RANDOM = "random"


@dataclass(frozen=True)
class Dataset:
    """A validated point set with optional per-point side information.

    Points become a read-only, C-ordered float64 copy and each side array a
    read-only copy of its dtype.  Raises NonRectangular for ragged or
    non-numeric input, non-whole labels or flags other than 0/1, NaNInput for
    non-finite points, and LengthMismatch for wrong lengths or other tags.

    Attributes:
        points: (n, d) float array, finite entries only.
        labels: optional (n,) int64 class labels; -1 marks planted outliers.
        modality: optional (n,) array of 'a' / 'v' tags for fused sensors.
        outlier_flag: optional (n,) boolean ground-truth contamination flags.
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    modality: np.ndarray | None = None
    outlier_flag: np.ndarray | None = None

    def __post_init__(self):
        try:
            pts = np.array(self.points, dtype=np.float64, order="C")
        except (TypeError, ValueError) as exc:
            raise NonRectangular(f"points are not a rectangular numeric table: {exc}") from None
        if pts.ndim != 2 or pts.size == 0:
            raise NonRectangular(f"points must be a non-empty 2-D table, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise NaNInput("points contain NaN or infinite entries")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        for name in _SIDE_ARRAYS:
            if getattr(self, name) is not None:
                side = _side_array(name, getattr(self, name), pts.shape[0])
                object.__setattr__(self, name, _frozen_array(side, side.dtype))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def _side_array(name: str, values, n: int) -> np.ndarray:
    """``values`` as (n,) side array ``name``, uncopied if of its dtype; an error if the cast changes a value."""
    dtype, kind, keeps, rule, error = _SIDE_ARRAYS[name]
    try:
        raw = np.asarray(values)
        bad = [] if raw.dtype.kind == kind else [v for v in dict.fromkeys(raw.ravel().tolist()) if not keeps(v)]
    except (TypeError, ValueError, OverflowError) as exc:
        raise NonRectangular(f"{name} do not convert to {np.dtype(dtype)}: {exc}") from None
    if bad:
        raise error(f"{name} must be {rule}, got {bad[0]!r}")
    side = np.asarray(raw, dtype)
    if side.shape != (n,):
        raise LengthMismatch(f"{name} has length {side.shape}, expected ({n},)")
    return side


def cluster_labels(labels, n: int) -> np.ndarray:
    """``labels`` as (n,) int64 cluster ids, else LengthMismatch (not shaped (n,)), NonRectangular
    (not whole numbers in int64, by :class:`Dataset`'s label check) or DimensionMismatch (below 0)."""
    out = _side_array("labels", labels, n)
    if np.any(out < 0):
        raise DimensionMismatch(f"labels must be cluster ids >= 0, got {out.min()}")
    return out


def as_integer(value, name: str, error: type[Exception]) -> int:
    """``value`` by the ``operator.index`` rule (Python and NumPy integers), else ``error`` naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def validate_dataset(points, labels=None, modality=None, outlier_flag=None) -> Dataset:
    """Coerce raw arrays into a :class:`Dataset`; its constructor holds the checks."""
    return Dataset(points, labels, modality, outlier_flag)


def as_dataset(data) -> Dataset:
    """Accept a :class:`Dataset` as-is, or wrap a raw (n, d) array in one."""
    if isinstance(data, Dataset):
        return data
    return validate_dataset(data)


def floored_covariance(cov: np.ndarray, fallback_scale: float) -> np.ndarray:
    """Add the relative diagonal ridge to a copy of a freshly estimated covariance.

    The ridge is ``COVARIANCE_FLOOR_REL * mean(diagonal)``.  When the
    estimate has collapsed to (numerically) zero trace the ridge falls back
    to the supplied data-level scale so the result stays positive-definite.
    """
    return _add_ridge(np.array(cov, dtype=np.float64, order="C"), fallback_scale)


def _add_ridge(cov: np.ndarray, fallback_scale: float) -> np.ndarray:
    """:func:`floored_covariance` in place, for a C-ordered covariance the caller owns."""
    diag = cov.diagonal() if cov.ndim == 2 else cov
    scale = float(diag.sum()) / diag.shape[0]
    if not scale > 0.0:
        scale = float(fallback_scale) if fallback_scale > 0.0 else 1.0
    ridge = COVARIANCE_FLOOR_REL * scale
    if cov.ndim == 2:
        cov.ravel()[:: cov.shape[0] + 1] += ridge
    else:
        cov += ridge
    return cov


def data_scale(points: np.ndarray) -> float:
    """Mean per-coordinate variance of the data: the ridge fallback scale."""
    return float(np.trace(np.atleast_2d(np.cov(points.T, bias=True)))) / points.shape[1]


def weighted_component(
    points, omega, omega_sum, resp_sum, shape, fallback_scale
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, floored covariance and centred points of one component from weighted responsibilities.

    ``omega`` holds the (n,) responsibilities times the M-step weights and
    ``omega_sum`` its sum.  The covariance divides the weighted scatter by
    the plain responsibility sum ``resp_sum``.  The centred points
    ``points - mean`` are a fresh (n, d) array the caller may overwrite.
    """
    mu = omega @ points / omega_sum
    diff = _broadcast(np.subtract, points, mu[None, :])
    if shape == CovarianceShape.DIAGONAL:
        cov = omega @ (diff * diff) / resp_sum
    else:
        cov = _broadcast(np.multiply, diff, omega[:, None]).T @ diff / resp_sum
    return mu, _add_ridge(cov, fallback_scale), diff


def _broadcast(ufunc, points: np.ndarray, other: np.ndarray) -> np.ndarray:
    """``ufunc(points, other)`` for (n, d) points, as a new C-ordered (n, d) array.

    In its own order NumPy runs one inner loop of d elements per row.  At
    d = 2 the loop runs down each column instead, into the same row-major
    buffer, about 2-4 times faster for n in the thousands; at d = 8 it is
    slower.  Each element is computed alone, so the order sets no bit.
    """
    if points.shape[1] != 2:
        return ufunc(points, other)
    out = np.empty(points.shape)
    ufunc(points.T, other.T, out=out.T, order="C")
    return out


def factor_covariance(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Validate a covariance and return its Cholesky factor and log-determinant.

    ``cov`` is a (d, d) matrix or a (d,) vector of variances; for the latter
    the factor is the vector of standard deviations.  Raises
    NonPositiveDefinite for an asymmetric or non-positive-definite matrix
    and for non-positive variances.
    """
    if cov.ndim == 2:
        scale = max(float(np.abs(cov).max()), 1.0)
        if float(np.abs(cov - cov.T).max()) > _SYMMETRY_RTOL * scale:
            raise NonPositiveDefinite("covariance is not symmetric")
    return _factor_symmetric(cov)


def _factor_symmetric(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """:func:`factor_covariance` without the symmetry check, for fresh estimates.

    The caller vouches for symmetry, as for a covariance estimated as a
    weighted scatter ``(diff * w).T @ diff``.  Still raises
    NonPositiveDefinite, never LinAlgError, for a non-positive-definite
    matrix or non-positive variances.
    """
    if cov.ndim == 1:
        if (cov <= 0.0).any():
            raise NonPositiveDefinite("diagonal variances must be positive")
        return np.sqrt(cov), float(np.log(cov).sum())
    if cov.shape == (2, 2):
        chol = _cholesky_2x2(cov)
    else:
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise NonPositiveDefinite("covariance is not positive-definite") from None
    return chol, 2.0 * float(np.log(chol.diagonal()).sum())


def _cholesky_2x2(cov: np.ndarray) -> np.ndarray:
    """``np.linalg.cholesky`` of a 2 x 2 matrix bit for bit, without its wrapper.

    LAPACK's unblocked steps on the lower triangle: l11 = sqrt(a11),
    l21 = (1 / l11) * a21, l22 = sqrt(a22 - l21 * l21), with its operand
    order, so that even NaN payloads agree.  As there, a pivot <= 0 raises
    and a NaN pivot passes on into the factor, and the zero reciprocal of an
    infinite l11 scales a21 to +0.0 whatever its value.
    """
    a11, _, a21, a22 = cov.ravel().tolist()
    if a11 <= 0.0:
        raise NonPositiveDefinite("covariance is not positive-definite")
    l11 = math.sqrt(a11)
    inv = 1.0 / l11
    l21 = inv * a21 if inv else 0.0
    pivot = a22 - l21 * l21
    if pivot <= 0.0:
        raise NonPositiveDefinite("covariance is not positive-definite")
    return np.array([[l11, 0.0], [l21, math.sqrt(pivot)]])


@dataclass(frozen=True)
class GaussianComponent:
    """One mixture component with cached Cholesky factor and log-determinant.

    ``covariance`` is a (d, d) matrix for full components or a (d,) vector of
    variances for diagonal ones.  The Cholesky factor and log-determinant are
    computed once at construction; both are reused by every density
    evaluation.
    """

    mean: np.ndarray
    covariance: np.ndarray
    chol: np.ndarray = field(init=False, repr=False, compare=False)
    log_det: float = field(init=False, compare=False)

    def __post_init__(self):
        mean = _frozen_array(self.mean)
        cov = _frozen_array(self.covariance)
        if mean.ndim != 1:
            raise DimensionMismatch("mean must be a 1-D vector")
        d = mean.shape[0]
        if cov.ndim == 2:
            if cov.shape != (d, d):
                raise DimensionMismatch(f"covariance shape {cov.shape} does not match d={d}")
        elif cov.ndim == 1:
            if cov.shape != (d,):
                raise DimensionMismatch(f"variance vector length {cov.shape[0]} != d={d}")
        else:
            raise DimensionMismatch("covariance must be 1-D or 2-D")
        chol, log_det = factor_covariance(cov)
        chol.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "chol", chol)
        object.__setattr__(self, "log_det", log_det)

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    @property
    def is_diagonal(self) -> bool:
        return self.covariance.ndim == 1

    @property
    def factor(self) -> np.ndarray:
        """What ``densities.squared_distances`` takes: the variances if diagonal, else the Cholesky factor."""
        return self.covariance if self.is_diagonal else self.chol

    def full_covariance(self) -> np.ndarray:
        """Covariance as a dense (d, d) matrix regardless of storage."""
        if self.is_diagonal:
            return np.diag(self.covariance)
        return np.array(self.covariance)


@dataclass(frozen=True)
class MixtureModel:
    """A finite Gaussian mixture: components plus mixing proportions.

    Proportions may contain exact zeros (components annihilated during model
    selection) but must sum to one.
    """

    components: tuple
    proportions: np.ndarray
    covariance_shape: CovarianceShape = CovarianceShape.FULL

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise DimensionMismatch("a mixture needs at least one component")
        pis = _frozen_array(self.proportions)
        if pis.shape != (len(comps),):
            raise LengthMismatch(f"{len(comps)} components but {pis.shape} proportions")
        if np.any(pis < 0.0):
            raise NonPositiveWeight("mixing proportions must be non-negative")
        if not abs(float(np.sum(pis)) - 1.0) <= _PROPORTION_ATOL:  # NaN fails too
            raise NonPositiveWeight(f"proportions sum to {float(np.sum(pis))!r}, not 1")
        d = comps[0].d
        want_diag = self.covariance_shape == CovarianceShape.DIAGONAL
        for comp in comps:
            if comp.d != d:
                raise DimensionMismatch("components have mixed dimensions")
            if comp.is_diagonal != want_diag:
                raise DimensionMismatch("component storage does not match covariance_shape")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "proportions", pis)

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def d(self) -> int:
        return self.components[0].d

    @property
    def free_params_per_component(self) -> int:
        """Free parameters per component: mean plus covariance entries."""
        d = self.d
        if self.covariance_shape == CovarianceShape.DIAGONAL:
            return 2 * d
        return d * (d + 3) // 2

    def to_dict(self) -> dict:
        """JSON-ready representation; covariances always stored dense."""
        return {
            "schema_version": 1,
            "covariance_shape": self.covariance_shape.value,
            "proportions": [float(p) for p in self.proportions],
            "components": [
                {
                    "mean": [float(v) for v in comp.mean],
                    "covariance": [[float(v) for v in row] for row in comp.full_covariance()],
                }
                for comp in self.components
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MixtureModel":
        if not isinstance(payload, dict):
            raise MalformedModel("a model file must hold a JSON object")
        version = payload.get("schema_version")
        if version != 1:
            raise DimensionMismatch(f"unsupported model schema version {version!r}")
        try:
            shape = CovarianceShape(payload["covariance_shape"])
            means = [np.asarray(entry["mean"], dtype=np.float64) for entry in payload["components"]]
            covs = [np.asarray(entry["covariance"], dtype=np.float64) for entry in payload["components"]]
            proportions = np.asarray(payload["proportions"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedModel(f"model file field missing or unreadable: {exc}") from None
        if shape == CovarianceShape.DIAGONAL:
            for cov in covs:
                if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or np.any(cov[~np.eye(len(cov), dtype=bool)] != 0):
                    raise MalformedModel("a diagonal model's covariances must be square and zero off the diagonal")
            covs = [np.diagonal(cov).copy() for cov in covs]
        return model_from_parameters(means, covs, proportions, shape)


def model_from_parameters(
    means: Sequence, covariances: Sequence, proportions, covariance_shape=CovarianceShape.FULL
) -> MixtureModel:
    """Constructor from plain arrays; NaNInput for a non-finite mean or covariance entry."""
    means = [np.asarray(m, dtype=np.float64) for m in means]
    covs = [np.asarray(c, dtype=np.float64) for c in covariances]
    if not all(np.all(np.isfinite(a)) for a in means + covs):
        raise NaNInput("component means and covariances must be finite")
    comps = tuple(GaussianComponent(m, c) for m, c in zip(means, covs))
    return MixtureModel(comps, np.asarray(proportions, dtype=np.float64), covariance_shape)


@dataclass(frozen=True)
class WeightState:
    """Per-point weight information for either weighting regime.

    In FIXED mode only ``fixed_w`` is set.  In RANDOM mode ``prior_alpha``
    and ``prior_beta`` hold the gamma priors (mean alpha/beta); after a
    weight-posterior step ``post_a`` (n,) and ``post_b`` (n, K) are
    populated, and ``marginal_mean`` holds the responsibility-weighted
    posterior means.
    """

    mode: WeightMode
    fixed_w: np.ndarray | None = None
    prior_alpha: np.ndarray | None = None
    prior_beta: np.ndarray | None = None
    post_a: np.ndarray | None = None
    post_b: np.ndarray | None = None
    marginal_mean: np.ndarray | None = None

    def __post_init__(self):
        if self.mode == WeightMode.FIXED:
            if self.fixed_w is None:
                raise NonPositiveWeight("fixed mode requires fixed_w")
            w = _frozen_array(self.fixed_w)
            if w.ndim != 1 or w.size == 0:
                raise DimensionMismatch("fixed_w must be a non-empty vector")
            if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
                raise NonPositiveWeight("fixed weights must be positive and finite")
            object.__setattr__(self, "fixed_w", w)
            return
        if self.prior_alpha is None or self.prior_beta is None:
            raise NonPositiveShape("random mode requires gamma priors")
        alpha = _frozen_array(self.prior_alpha)
        beta = _frozen_array(self.prior_beta)
        if alpha.shape != beta.shape or alpha.ndim != 1:
            raise DimensionMismatch("prior alpha/beta must be matching vectors")
        if not (np.all(alpha > 0.0) and np.all(beta > 0.0)):
            raise NonPositiveShape("gamma priors must be positive")
        object.__setattr__(self, "prior_alpha", alpha)
        object.__setattr__(self, "prior_beta", beta)
        n = alpha.shape[0]
        if self.post_a is not None:
            a = _frozen_array(self.post_a)
            b = _frozen_array(self.post_b)
            if a.shape != (n,) or b.ndim != 2 or b.shape[0] != n:
                raise DimensionMismatch("posterior arrays have inconsistent shapes")
            if np.any(a <= 0.0) or np.any(b <= 0.0):
                raise NonPositiveShape("posterior gamma parameters must be positive")
            object.__setattr__(self, "post_a", a)
            object.__setattr__(self, "post_b", b)
        if self.marginal_mean is not None:
            marg = _frozen_array(self.marginal_mean)
            if marg.shape != (n,):
                raise DimensionMismatch("marginal_mean must have one entry per point")
            if not np.all(np.isfinite(marg)) or np.any(marg <= 0.0):
                raise NonPositiveWeight("marginal weight means must be positive and finite")
            object.__setattr__(self, "marginal_mean", marg)

    @classmethod
    def fixed(cls, w) -> "WeightState":
        return cls(mode=WeightMode.FIXED, fixed_w=np.asarray(w, dtype=np.float64))

    @classmethod
    def random_prior(cls, alpha, beta) -> "WeightState":
        return cls(
            mode=WeightMode.RANDOM,
            prior_alpha=np.asarray(alpha, dtype=np.float64),
            prior_beta=np.asarray(beta, dtype=np.float64),
        )

    def with_posterior(self, post_a, post_b) -> "WeightState":
        return replace(self, post_a=post_a, post_b=post_b, marginal_mean=None)

    def with_marginal(self, marginal_mean) -> "WeightState":
        return replace(self, marginal_mean=marginal_mean)

    @property
    def post_mean(self) -> np.ndarray | None:
        """(n, K) posterior weight means a_i / b_ik, or None before a weight-posterior step."""
        return None if self.post_a is None else self.post_a[:, None] / self.post_b

    def averaged_means(self, eta) -> np.ndarray:
        """sum_k eta_ik a_i / b_ik: the posterior weight means averaged over the assignments ``eta``."""
        # Named, not a temporary: NumPy may compute the product in a large
        # temporary's buffer and layout, which changes the row sums' order.
        post_mean = self.post_mean
        return np.sum(eta * post_mean, axis=1)

    @property
    def n(self) -> int:
        if self.mode == WeightMode.FIXED:
            return self.fixed_w.shape[0]
        return self.prior_alpha.shape[0]


@dataclass(frozen=True)
class Responsibilities:
    """Posterior component memberships, one row per point, rows sum to one."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _frozen_array(self.matrix)
        if mat.ndim != 2 or mat.size == 0:
            raise DimensionMismatch("responsibilities must be a non-empty matrix")
        if np.any(mat < 0.0) or np.any(mat > 1.0 + 1e-12):
            raise DimensionMismatch("responsibilities must lie in [0, 1]")
        row_sums = mat.sum(axis=1)
        if float(np.max(np.abs(row_sums - 1.0))) > 1e-10:
            raise DimensionMismatch("responsibility rows must sum to 1")
        object.__setattr__(self, "matrix", mat)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def k(self) -> int:
        return self.matrix.shape[1]

    def hard_assignments(self) -> np.ndarray:
        """Index of the highest-responsibility component per point."""
        return np.argmax(self.matrix, axis=1)


class AnnihilationEvent(NamedTuple):
    """One component removal during model selection."""

    iteration: int
    component: int
    proportion: float


@dataclass(frozen=True)
class FitConfig:
    """Stopping rule shared by the EM drivers.

    Iteration stops when the relative objective change drops below
    ``rel_tol`` or after ``max_iter`` iterations.
    """

    max_iter: int = 400
    rel_tol: float = 0.01

    def __post_init__(self):
        if as_integer(self.max_iter, "max_iter", DimensionMismatch) < 0:
            raise DimensionMismatch("max_iter must be >= 0")
        if not self.rel_tol >= 0.0:
            raise DimensionMismatch("rel_tol must be >= 0")


@dataclass(frozen=True)
class FitReport:
    """Everything a fitting run produced.

    ``objective_trace`` holds the observed-data objective per iteration
    (log-likelihood for the EM drivers, message length for model selection).
    Selection runs additionally fill the component-count history, the
    per-stage checkpoint lengths, and the annihilation log.
    """

    objective_trace: tuple
    final_model: MixtureModel
    final_responsibilities: Responsibilities
    final_weights: WeightState
    iterations: int
    converged: bool
    annihilation_log: tuple = ()
    kplus_history: tuple | None = None
    checkpoint_lengths: tuple | None = None
    best_length: float | None = None
