"""Degenerate point tables give a finite fit or a WdmixError, checked as a property.

Each table is one of six degenerate kinds: half the points one repeated
point, rank-1 collinear points, a scale of 10^+-150, an offset of
10^3-10^11, points rounded to a lattice, and a constant first column.  Half
the tables have n near k*m/2, where a component's support barely pays for
its m parameters.  Every warning is an error here except selection's
small-sample UserWarning, which such tables are expected to raise.

Fixed-weight ``select_model`` and ``em_fixed.fit`` started from ``kmeans``
are checked.  Random-weight selection and ``em_weighted.fit`` are left out:
on some of these tables a collapsing component still overflows their
Mahalanobis distances, and collapse-proof selection is to remove that.

Budget: 150 examples per entry point, about 2 s of the suite in all.
"""

from __future__ import annotations

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from wdmix import FitConfig, MmlConfig, WeightMode, em_fixed, kmeans, model_from_labels, select_model
from wdmix.errors import WdmixError
from wdmix.initialization import default_weights

_BUDGET = settings(max_examples=150, deadline=None)


@st.composite
def degenerate_tables(draw):
    """(points, k, covariance shape) of one degenerate kind."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["full", "diagonal"]))
    m = 2 * d if shape == "diagonal" else d * (d + 3) // 2
    if draw(st.booleans()):
        n = max(4, k * m // 2 + draw(st.integers(-2, 2)))
    else:
        n = draw(st.integers(4, 59))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = 10.0 * rng.standard_normal((n, d))
    kind = draw(st.sampled_from(["duplicate", "collinear", "scale", "offset", "lattice", "constant"]))
    if kind == "duplicate":
        x[: n // 2] = x[0]
    elif kind == "collinear":
        x = 10.0 * rng.standard_normal((n, 1)) * rng.standard_normal(d) + rng.standard_normal(d)
    elif kind == "scale":
        x *= 10.0 ** draw(st.sampled_from([-150, 150]))
    elif kind == "offset":
        x += 10.0 ** draw(st.integers(3, 11))
    elif kind == "lattice":
        step = draw(st.sampled_from([1.0, 10.0]))
        x = np.round(x / step) * step
    else:
        x[:, 0] = x[0, 0]
    return x, k, shape


def _select(points, k, shape):
    config = MmlConfig(k_high=k, max_outer_iter=200, weight_mode=WeightMode.FIXED)
    return select_model(points, config, covariance_shape=shape, seed=0, restarts=2)


def _fit(points, k, shape):
    labels, _ = kmeans(points, k, restarts=2, seed=0)
    initial = model_from_labels(points, labels, shape)
    return em_fixed.fit(points, initial, default_weights(points, WeightMode.FIXED), FitConfig(max_iter=50))


def _finite_or_named_error(run, table):
    points, k, shape = table
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "only .* points for k_high", UserWarning)
        try:
            report = run(points, k, shape)
        except WdmixError:
            return
    model = report.final_model
    assert np.isfinite(model.proportions).all()
    for comp in model.components:
        assert np.isfinite(comp.mean).all() and np.isfinite(comp.covariance).all()
        assert np.isfinite(comp.log_det)
    assert np.isfinite(report.objective_trace).all()
    assert np.isfinite(report.final_responsibilities.matrix).all()


@_BUDGET
@given(degenerate_tables())
def test_fixed_selection_gives_finite_model_or_wdmix_error(table):
    _finite_or_named_error(_select, table)


@_BUDGET
@given(degenerate_tables())
def test_fixed_fit_gives_finite_model_or_wdmix_error(table):
    _finite_or_named_error(_fit, table)
