"""Outside-in tracing of the wdmix layers for the benchmark's traced runs.

A :class:`Tracer` replaces each traced public function at every wdmix module
attribute that refers to it, so calls made by other modules through their
own imported names are seen too.  Value objects are traced through their
``__post_init__``.  Each call records one span ``(op, id, parent, name,
start, end)`` in memory plus counters taken from its arguments or result;
spans of one benchmark op share the op id.  ``restore`` puts every original
back.  Nothing in the library is edited.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

import wdmix

MODULES = (
    "core",
    "datagen",
    "densities",
    "initialization",
    "em_fixed",
    "em_weighted",
    "model_selection",
    "evaluation",
    "av_fusion",
    "cli",
)

# Public functions traced, by defining module.
TRACED_FUNCTIONS = {
    "datagen": ("generate_sim", "contaminate_uniform"),
    "densities": (
        "mahalanobis_sq",
        "mahalanobis_matrix",
        "scaled_gaussian_log_matrix",
        "pearson7_log_matrix",
        "log_mixture_density",
        "log_gaussian_scaled",
        "log_pearson7",
        "log_gamma_pdf",
        "normalize_log_responsibilities",
    ),
    "initialization": ("kmeans", "knn_kernel_weights", "model_from_labels"),
    "em_fixed": ("e_step", "m_step", "weighted_m_step", "loglik", "expected_complete_loglik", "fit"),
    "em_weighted": (
        "e_step_assignments",
        "e_step_weights",
        "marginal_weight_means",
        "m_step",
        "marginal_loglik",
        "expected_complete_loglik",
        "fit",
    ),
    "model_selection": ("select_model", "message_length", "truncated_proportions"),
    "evaluation": ("davies_bouldin", "micro_f1", "outlier_score_report"),
    "av_fusion": ("cross_modal_weights", "classify_components", "correct_detection"),
    "cli": (
        "main",
        "read_dataset_csv",
        "read_assignments_csv",
        "write_dataset_csv",
        "write_assignments_csv",
        "write_scatter_svg",
        "assignments_from_model",
    ),
}

# The shared M-step is charged to the EM module whose attribute was called.
SITE_SPAN_NAMES = {("em_weighted", "weighted_m_step"): "em_weighted.weighted_m_step"}

VALUE_OBJECTS = ("GaussianComponent", "MixtureModel", "Responsibilities", "WeightState")

# Per-layer metric -> span names whose self times it sums.
SELF_TIME_METRICS = {
    "initialization.kmeans_s": ("initialization.kmeans",),
    "initialization.knn_s": ("initialization.knn_kernel_weights",),
    "initialization.model_from_labels_s": ("initialization.model_from_labels",),
    "densities.mahalanobis_s": ("densities.mahalanobis_sq", "densities.mahalanobis_matrix"),
    "densities.log_matrix_s": (
        "densities.scaled_gaussian_log_matrix",
        "densities.pearson7_log_matrix",
        "densities.log_mixture_density",
        "densities.log_gaussian_scaled",
        "densities.log_pearson7",
        "densities.log_gamma_pdf",
    ),
    "densities.normalize_s": ("densities.normalize_log_responsibilities",),
    "em_weighted.e_step_s": (
        "em_weighted.e_step_assignments",
        "em_weighted.e_step_weights",
        "em_weighted.marginal_weight_means",
    ),
    "em_weighted.m_step_s": ("em_weighted.m_step", "em_weighted.weighted_m_step"),
    "em_weighted.loglik_s": ("em_weighted.marginal_loglik",),
    "em_weighted.q_s": ("em_weighted.expected_complete_loglik",),
    "em_weighted.fit_s": ("em_weighted.fit",),
    "em_fixed.e_step_s": ("em_fixed.e_step",),
    "em_fixed.m_step_s": ("em_fixed.m_step", "em_fixed.weighted_m_step"),
    "em_fixed.loglik_s": ("em_fixed.loglik",),
    "em_fixed.q_s": ("em_fixed.expected_complete_loglik",),
    "em_fixed.fit_s": ("em_fixed.fit",),
    "model_selection.self_s": ("model_selection.select_model", "model_selection.truncated_proportions"),
    "model_selection.message_length_s": ("model_selection.message_length",),
    "core.component_s": ("core.GaussianComponent",),
    "core.value_object_s": ("core.MixtureModel", "core.Responsibilities", "core.WeightState"),
    "datagen.generate_s": ("datagen.generate_sim", "datagen.contaminate_uniform"),
    "evaluation.davies_bouldin_s": ("evaluation.davies_bouldin",),
    "evaluation.micro_f1_s": ("evaluation.micro_f1",),
    "evaluation.auc_s": ("evaluation.outlier_score_report",),
    "av_fusion.cross_modal_s": ("av_fusion.cross_modal_weights",),
    "av_fusion.classify_s": ("av_fusion.classify_components",),
    "av_fusion.detect_s": ("av_fusion.correct_detection",),
    "cli.csv_read_s": ("cli.read_dataset_csv", "cli.read_assignments_csv"),
    "cli.csv_write_s": ("cli.write_dataset_csv", "cli.write_assignments_csv"),
    "cli.svg_write_s": ("cli.write_scatter_svg",),
    "cli.generate_s": ("cli.main:generate",),
    "cli.fit_s": ("cli.main:fit",),
    "cli.select_s": ("cli.main:select",),
    "cli.evaluate_s": ("cli.main:evaluate", "cli.assignments_from_model"),
}

# Per-layer metric -> span name whose calls it counts.
CALL_COUNT_METRICS = {
    "initialization.knn_calls": "initialization.knn_kernel_weights",
    "densities.mahalanobis_calls": "densities.mahalanobis_sq",
    "densities.normalize_calls": "densities.normalize_log_responsibilities",
    "core.component_builds": "core.GaussianComponent",
}

# Counters filled from arguments or results (see ``_counters``), plus the
# ones a workload adds from its own outputs.
COUNTER_METRICS = (
    "densities.mahalanobis_rows",
    "em_weighted.iterations",
    "em_fixed.iterations",
    "model_selection.sweeps",
    "model_selection.annihilations",
    "model_selection.budget_exhausted",
    "cli.artifact_bytes",
)

LAYER_TOTAL_METRICS = tuple(f"layers.{name}_s" for name in MODULES) + ("layers.harness_s",)

HARNESS_SPAN = "harness.op"


def _counters(span_name: str, args, kwargs, result) -> dict:
    """Counts recorded at a layer boundary: work done, read from the call."""
    if span_name == "densities.mahalanobis_sq":
        x = args[0] if args else kwargs["x"]
        return {"densities.mahalanobis_rows": int(np.shape(x)[0]) if np.ndim(x) == 2 else 1}
    if span_name in ("em_weighted.fit", "em_fixed.fit"):
        return {span_name.replace(".fit", ".iterations"): result.iterations}
    if span_name == "model_selection.select_model":
        config = args[1] if len(args) > 1 else kwargs["config"]
        return {
            "model_selection.sweeps": result.iterations,
            "model_selection.annihilations": len(result.annihilation_log),
            "model_selection.budget_exhausted": int(
                not result.converged and result.iterations >= config.max_outer_iter
            ),
        }
    return {}


def per_layer_metric_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    return (
        list(SELF_TIME_METRICS)
        + list(CALL_COUNT_METRICS)
        + list(COUNTER_METRICS)
        + list(LAYER_TOTAL_METRICS)
        + ["trace_overhead_frac"]
    )


class Tracer:
    """Span recorder that patches wdmix while installed.

    Wrappers record only between :meth:`begin_op` and :meth:`end_op`; outside
    an op (for example while the benchmark checks outputs) they call straight
    through.
    """

    def __init__(self):
        self.spans: list = []  # [op, parent, name, start, end]
        self.counters: Counter = Counter()
        self._stack: list = []
        self._op = None
        self._patches: list = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"wdmix.{name}") for name in MODULES}
        sites = dict(modules, wdmix=wdmix)
        for defining, names in TRACED_FUNCTIONS.items():
            for attr in names:
                original = getattr(modules[defining], attr)
                for site_name, site in sites.items():
                    for name, value in list(vars(site).items()):
                        if value is original:
                            span = SITE_SPAN_NAMES.get((site_name, attr), f"{defining}.{attr}")
                            self._patch(site, name, self._wrap(original, span))
        for cls_name in VALUE_OBJECTS:
            cls = getattr(modules["core"], cls_name)
            self._patch(cls, "__post_init__", self._wrap(cls.__post_init__, f"core.{cls_name}"))

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def _wrap(self, fn, span_name: str):
        tracer = self
        by_subcommand = span_name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            name = span_name
            if by_subcommand:
                argv = args[0] if args else kwargs.get("argv")
                name = f"cli.main:{argv[0]}"
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer.counters.update(_counters(name, args, kwargs, result))
            return result

        return traced

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([self._op, parent, name, time.perf_counter(), None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: str) -> None:
        self._op = op_id
        self._root = self._open(HARNESS_SPAN)

    def end_op(self) -> None:
        self._close(self._root)
        self._op = None

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """Self time summed per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict = defaultdict(float)
        for index, (_, _, name, start, end) in enumerate(self.spans):
            totals[name] += end - start - child[index]
        return totals

    def per_layer_metrics(self, extra_counters: dict, overhead_frac: float) -> dict:
        selfs = self.self_times()
        calls = Counter(span[2] for span in self.spans)
        counters = self.counters + Counter(extra_counters)
        out = {}
        for metric, names in SELF_TIME_METRICS.items():
            out[metric] = (sum(selfs.get(n, 0.0) for n in names), "s")
        for metric, name in CALL_COUNT_METRICS.items():
            out[metric] = (calls.get(name, 0), "count")
        for metric in COUNTER_METRICS:
            out[metric] = (int(counters.get(metric, 0)), "count")
        layer_totals: dict = defaultdict(float)
        for name, seconds in selfs.items():
            layer_totals[name.split(".")[0]] += seconds
        for module in MODULES + ("harness",):
            out[f"layers.{module}_s"] = (layer_totals.get(module, 0.0), "s")
        out["trace_overhead_frac"] = (overhead_frac, "frac")
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: op, id, parent, name, start, end."""
        with open(path, "w") as handle:
            for index, (op, parent, name, start, end) in enumerate(self.spans):
                handle.write(json.dumps([op, index, parent, name, start, end]) + "\n")
