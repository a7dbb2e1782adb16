"""Exception types raised across the package.

Every error derives from :class:`WdmixError`, which itself derives from
``ValueError`` so that generic callers can catch invalid-input conditions
without importing this module.
"""


class WdmixError(ValueError):
    """Base class for all domain errors raised by this package."""


class NonRectangular(WdmixError):
    """Input table is ragged or not numeric."""


class NaNInput(WdmixError):
    """Input contains NaN or infinite entries."""


class LengthMismatch(WdmixError):
    """Per-point side arrays do not match the number of points."""


class DimensionMismatch(WdmixError):
    """Array dimensions are inconsistent with the model or data."""


class NonPositiveDefinite(WdmixError):
    """Covariance matrix is not symmetric positive-definite."""


class NonPositiveWeight(WdmixError):
    """A point weight is zero or negative."""


class NonPositiveShape(WdmixError):
    """A gamma shape or rate parameter is zero or negative."""


class NonPositiveArgument(WdmixError):
    """A density argument that must be positive is not."""


class EmptyInput(WdmixError):
    """An operation received an empty array where values are required."""


class DegenerateRow(WdmixError):
    """A responsibility row has no component with positive density."""


class MalformedModel(WdmixError):
    """A saved model lacks a required field or holds an unreadable value."""


class NoActiveComponents(WdmixError):
    """A mixture has no component with positive proportion."""


class AllAnnihilated(WdmixError):
    """Every component fell below the minimum support during selection."""


class KTooLarge(WdmixError):
    """More clusters requested than there are points."""


class EmptyCluster(WdmixError):
    """A cluster label has no member points."""


class QTooLarge(WdmixError):
    """More neighbours requested than there are other points."""


class SingleCluster(WdmixError):
    """A metric that needs at least two clusters received fewer."""


class MissingFlags(WdmixError):
    """Ground-truth outlier flags are required but absent."""


class SingleModality(WdmixError):
    """Cross-modal weighting needs points from both modalities."""


class DimensionTooHigh(WdmixError):
    """Plotting is only supported for two-dimensional data."""
