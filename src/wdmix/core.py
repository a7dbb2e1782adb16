"""Domain types shared by every engine in the package.

All value objects are frozen dataclasses holding read-only numpy arrays, so a
fitted model or a validated dataset can be passed around freely without
defensive copies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    LengthMismatch,
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

    Attributes:
        points: (n, d) float array, finite entries only.
        labels: optional (n,) integer class labels; -1 marks planted outliers.
        modality: optional (n,) array of 'a' / 'v' tags for fused sensors.
        outlier_flag: optional (n,) boolean ground-truth contamination flags.
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    modality: np.ndarray | None = None
    outlier_flag: np.ndarray | None = None

    def __post_init__(self):
        pts = self.points
        if not isinstance(pts, np.ndarray) or pts.ndim != 2 or pts.size == 0:
            raise NonRectangular("points must be a non-empty 2-D array")
        if not np.issubdtype(pts.dtype, np.floating):
            raise NonRectangular("points must be a float array")
        if not np.all(np.isfinite(pts)):
            raise NaNInput("points contain NaN or infinite entries")
        n = pts.shape[0]
        for name in ("labels", "modality", "outlier_flag"):
            side = getattr(self, name)
            if side is not None and side.shape != (n,):
                raise LengthMismatch(f"{name} has length {side.shape}, expected ({n},)")
        if self.modality is not None:
            tags = set(np.unique(self.modality).tolist())
            if not tags <= {"a", "v"}:
                raise LengthMismatch(f"modality tags must be 'a' or 'v', got {sorted(tags)}")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def validate_dataset(points, labels=None, modality=None, outlier_flag=None) -> Dataset:
    """Coerce raw arrays into a :class:`Dataset`, rejecting malformed input.

    Raises NonRectangular for ragged or non-numeric tables, NaNInput for
    non-finite entries, and LengthMismatch for side arrays of the wrong
    length.
    """
    try:
        pts = np.array(points, dtype=np.float64, copy=True)
    except (TypeError, ValueError) as exc:
        raise NonRectangular(f"points are not a rectangular numeric table: {exc}") from None
    if pts.ndim != 2:
        raise NonRectangular(f"points must be 2-D, got ndim={pts.ndim}")
    pts.setflags(write=False)
    if labels is not None:
        labels = _frozen_array(labels, dtype=np.int64)
    if modality is not None:
        modality = np.array(modality, dtype="U1", copy=True)
        modality.setflags(write=False)
    if outlier_flag is not None:
        outlier_flag = _frozen_array(outlier_flag, dtype=bool)
    return Dataset(points=pts, labels=labels, modality=modality, outlier_flag=outlier_flag)


def as_dataset(data) -> Dataset:
    """Accept a :class:`Dataset` as-is, or wrap a raw (n, d) array in one."""
    if isinstance(data, Dataset):
        return data
    return validate_dataset(data)


def floored_covariance(cov: np.ndarray, fallback_scale: float) -> np.ndarray:
    """Add the relative diagonal ridge to a freshly estimated covariance.

    The ridge is ``COVARIANCE_FLOOR_REL * mean(diagonal)``.  When the
    estimate has collapsed to (numerically) zero trace the ridge falls back
    to the supplied data-level scale so the result stays positive-definite.
    """
    cov = np.asarray(cov, dtype=np.float64)
    diag = np.diagonal(cov) if cov.ndim == 2 else cov
    scale = float(np.sum(diag)) / diag.shape[0]
    if not scale > 0.0:
        scale = float(fallback_scale) if fallback_scale > 0.0 else 1.0
    ridge = COVARIANCE_FLOOR_REL * scale
    if cov.ndim == 2:
        out = cov.copy()
        out.flat[:: cov.shape[0] + 1] += ridge
        return out
    return cov + ridge


def data_scale(points: np.ndarray) -> float:
    """Mean per-coordinate variance of the data: the ridge fallback scale."""
    return float(np.trace(np.atleast_2d(np.cov(points.T, bias=True)))) / points.shape[1]


def weighted_component(
    points, omega, omega_sum, resp_sum, shape, fallback_scale
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and floored covariance of one component from weighted responsibilities.

    ``omega`` holds the (n,) responsibilities times the M-step weights and
    ``omega_sum`` its sum.  The covariance divides the weighted scatter by
    the plain responsibility sum ``resp_sum``.
    """
    mu = omega @ points / omega_sum
    diff = points - mu
    if shape == CovarianceShape.DIAGONAL:
        cov = omega @ (diff * diff) / resp_sum
    else:
        cov = (diff * omega[:, None]).T @ diff / resp_sum
    return mu, floored_covariance(cov, fallback_scale)


def factor_covariance(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Validate a covariance and return its Cholesky factor and log-determinant.

    ``cov`` is a (d, d) matrix or a (d,) vector of variances; for the latter
    the factor is the vector of standard deviations.  Raises
    NonPositiveDefinite for an asymmetric or non-positive-definite matrix
    and for non-positive variances.
    """
    if cov.ndim == 2:
        scale = max(float(np.max(np.abs(cov))), 1.0)
        if float(np.max(np.abs(cov - cov.T))) > _SYMMETRY_RTOL * scale:
            raise NonPositiveDefinite("covariance is not symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise NonPositiveDefinite("covariance is not positive-definite") from None
        return chol, 2.0 * float(np.sum(np.log(np.diagonal(chol))))
    if np.any(cov <= 0.0):
        raise NonPositiveDefinite("diagonal variances must be positive")
    return np.sqrt(cov), float(np.sum(np.log(cov)))


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
        if abs(float(np.sum(pis)) - 1.0) > _PROPORTION_ATOL:
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
        version = payload.get("schema_version")
        if version != 1:
            raise DimensionMismatch(f"unsupported model schema version {version!r}")
        shape = CovarianceShape(payload["covariance_shape"])
        comps = []
        for entry in payload["components"]:
            cov = np.asarray(entry["covariance"], dtype=np.float64)
            if shape == CovarianceShape.DIAGONAL:
                cov = np.diagonal(cov).copy()
            comps.append(GaussianComponent(np.asarray(entry["mean"], dtype=np.float64), cov))
        return cls(
            components=tuple(comps),
            proportions=np.asarray(payload["proportions"], dtype=np.float64),
            covariance_shape=shape,
        )


def model_from_parameters(
    means: Sequence, covariances: Sequence, proportions, covariance_shape=CovarianceShape.FULL
) -> MixtureModel:
    """Convenience constructor from plain arrays."""
    comps = tuple(
        GaussianComponent(np.asarray(m, dtype=np.float64), np.asarray(c, dtype=np.float64))
        for m, c in zip(means, covariances)
    )
    return MixtureModel(comps, np.asarray(proportions, dtype=np.float64), covariance_shape)


@dataclass(frozen=True)
class WeightState:
    """Per-point weight information for either weighting regime.

    In FIXED mode only ``fixed_w`` is set.  In RANDOM mode ``prior_alpha``
    and ``prior_beta`` hold the gamma priors (mean alpha/beta); after a
    weight-posterior step ``post_a`` (n,), ``post_b`` (n, K) and
    ``post_mean = post_a[:, None] / post_b`` are populated, and
    ``marginal_mean`` holds the responsibility-weighted posterior means.
    """

    mode: WeightMode
    fixed_w: np.ndarray | None = None
    prior_alpha: np.ndarray | None = None
    prior_beta: np.ndarray | None = None
    post_a: np.ndarray | None = None
    post_b: np.ndarray | None = None
    post_mean: np.ndarray | None = None
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
            mean = _frozen_array(self.post_mean)
            if a.shape != (n,) or b.ndim != 2 or b.shape[0] != n or mean.shape != b.shape:
                raise DimensionMismatch("posterior arrays have inconsistent shapes")
            if np.any(a <= 0.0) or np.any(b <= 0.0):
                raise NonPositiveShape("posterior gamma parameters must be positive")
            if not np.allclose(mean, a[:, None] / b, rtol=1e-12, atol=0.0):
                raise NonPositiveShape("posterior means do not equal a/b")
            object.__setattr__(self, "post_a", a)
            object.__setattr__(self, "post_b", b)
            object.__setattr__(self, "post_mean", mean)
        if self.marginal_mean is not None:
            marg = _frozen_array(self.marginal_mean)
            if marg.shape != (n,):
                raise DimensionMismatch("marginal_mean must have one entry per point")
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
        a = np.asarray(post_a, dtype=np.float64)
        b = np.asarray(post_b, dtype=np.float64)
        return WeightState(
            mode=WeightMode.RANDOM,
            prior_alpha=self.prior_alpha,
            prior_beta=self.prior_beta,
            post_a=a,
            post_b=b,
            post_mean=a[:, None] / b,
        )

    def with_marginal(self, marginal_mean) -> "WeightState":
        return WeightState(
            mode=WeightMode.RANDOM,
            prior_alpha=self.prior_alpha,
            prior_beta=self.prior_beta,
            post_a=self.post_a,
            post_b=self.post_b,
            post_mean=self.post_mean,
            marginal_mean=np.asarray(marginal_mean, dtype=np.float64),
        )

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
        if self.max_iter < 0:
            raise DimensionMismatch("max_iter must be >= 0")
        if self.rel_tol < 0.0:
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
    final_weights: WeightState | None
    iterations: int
    converged: bool
    annihilation_log: tuple = ()
    kplus_history: tuple | None = None
    checkpoint_lengths: tuple | None = None
    best_length: float | None = None
