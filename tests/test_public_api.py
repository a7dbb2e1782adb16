"""The package's public surface: exported names, the version string and imports."""

import ast
import dataclasses
import enum
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import wdmix
from wdmix import cli

PUBLIC_NAMES = [
    "AnnihilationEvent", "AvConfig", "AvSegmentResult", "ComponentTag", "CovarianceShape",
    "Dataset", "FitConfig", "FitReport", "GaussianComponent", "MixtureModel", "MmlConfig",
    "OutlierScoreReport", "Responsibilities", "WeightMode", "WeightState", "analyze_segment",
    "av_fusion", "classify_components", "contaminate_uniform", "correct_detection",
    "cross_modal_weights", "datagen", "davies_bouldin", "em_fixed", "em_weighted", "errors",
    "evaluation", "gamma_priors_from_weights", "generate_sim", "initialization", "kmeans",
    "knn_kernel_weights", "log_gamma_pdf", "log_gaussian_scaled", "log_pearson7",
    "mahalanobis_sq", "message_length", "micro_f1", "model_from_labels", "model_from_parameters",
    "outlier_score_report", "pipeline_gamma_priors", "select_model", "truncated_proportions",
    "validate_dataset",
]


def test_public_names_are_pinned():
    # Adding or removing an export is a deliberate edit of this list.
    assert sorted(wdmix.__all__) == PUBLIC_NAMES


# Every exported callable, and every public function of the two EM modules,
# with its parameter names: init fields for dataclasses and named tuples,
# member values for enums.  Adding or removing a setting is a deliberate
# edit of this map.
PUBLIC_SIGNATURES = {
    "AnnihilationEvent": ["iteration", "component", "proportion"],
    "AvConfig": ["seed"],
    "AvSegmentResult": ["model", "responsibilities", "tags", "relevance", "weights"],
    "ComponentTag": ["audio_visual", "audio_only", "visual_only"],
    "CovarianceShape": ["full", "diagonal"],
    "Dataset": ["points", "labels", "modality", "outlier_flag"],
    "FitConfig": ["max_iter", "rel_tol"],
    "FitReport": [
        "objective_trace", "final_model", "final_responsibilities", "final_weights", "iterations",
        "converged", "annihilation_log", "kplus_history", "checkpoint_lengths", "best_length",
    ],
    "GaussianComponent": ["mean", "covariance"],
    "MixtureModel": ["components", "proportions", "covariance_shape"],
    "MmlConfig": ["k_high", "k_low", "epsilon", "max_outer_iter", "weight_mode"],
    "OutlierScoreReport": ["inlier_mean_weight", "outlier_mean_weight", "auc"],
    "Responsibilities": ["matrix"],
    "WeightMode": ["fixed", "random"],
    "WeightState": ["mode", "fixed_w", "prior_alpha", "prior_beta", "post_a", "post_b", "marginal_mean"],
    "analyze_segment": ["segment", "config"],
    "classify_components": ["responsibilities", "modality", "threshold"],
    "contaminate_uniform": ["dataset", "outlier_fraction", "margin", "seed"],
    "correct_detection": ["x_g", "model", "component_tags"],
    "cross_modal_weights": ["dataset"],
    "davies_bouldin": ["points", "labels", "centers"],
    "gamma_priors_from_weights": ["weights"],
    "generate_sim": ["profile", "n_inliers", "seed"],
    "kmeans": ["data", "k", "restarts", "seed"],
    "knn_kernel_weights": ["data", "q", "bandwidth"],
    "log_gamma_pdf": ["w", "alpha", "beta"],
    "log_gaussian_scaled": ["x", "component", "w"],
    "log_pearson7": ["x", "component", "alpha", "beta"],
    "mahalanobis_sq": ["x", "component"],
    "message_length": ["data", "model", "responsibilities", "weight_state"],
    "micro_f1": ["predicted", "true"],
    "model_from_labels": ["data", "labels", "covariance_shape"],
    "model_from_parameters": ["means", "covariances", "proportions", "covariance_shape"],
    "outlier_score_report": ["weight_state", "outlier_flag"],
    "pipeline_gamma_priors": ["weights"],
    "select_model": ["data", "config", "weights", "covariance_shape", "seed", "restarts"],
    "truncated_proportions": ["responsibility_sums", "free_params"],
    "validate_dataset": ["points", "labels", "modality", "outlier_flag"],
    "em_fixed.e_step": ["data", "model", "weights"],
    "em_fixed.expected_complete_loglik": ["data", "model", "responsibilities", "weights"],
    "em_fixed.expected_terms": ["points", "model", "eta", "wbar"],
    "em_fixed.fit": ["data", "initial_model", "weights", "config"],
    "em_fixed.loglik": ["data", "model", "weights"],
    "em_fixed.m_step": ["data", "responsibilities", "weights", "covariance_shape"],
    "em_fixed.mixture_posterior": ["points", "model", "kernel"],
    "em_fixed.run_em": ["points", "initial_model", "kernel", "config"],
    "em_fixed.weighted_m_step": ["points", "eta", "weight_matrix", "covariance_shape", "fallback_scale"],
    "em_weighted.e_step_assignments": ["data", "model", "weight_state"],
    "em_weighted.e_step_weights": ["data", "model", "weight_state"],
    "em_weighted.expected_complete_loglik": ["data", "model", "responsibilities", "weight_state"],
    "em_weighted.fit": ["data", "initial_model", "weight_state", "config"],
    "em_weighted.m_step": ["data", "responsibilities", "weight_state", "covariance_shape"],
    "em_weighted.marginal_loglik": ["data", "model", "weight_state"],
    "em_weighted.marginal_weight_means": ["weight_state", "responsibilities"],
}


def _parameter_names(obj) -> list:
    if dataclasses.is_dataclass(obj):
        return [f.name for f in dataclasses.fields(obj) if f.init]
    if isinstance(obj, type) and issubclass(obj, enum.Enum):
        return [member.value for member in obj]
    if isinstance(obj, type) and issubclass(obj, tuple):
        return list(obj._fields)
    return list(inspect.signature(obj).parameters)


def test_public_signatures_are_pinned():
    found = {
        name: _parameter_names(getattr(wdmix, name))
        for name in wdmix.__all__
        if not isinstance(getattr(wdmix, name), types.ModuleType)
    }
    for module in (wdmix.em_fixed, wdmix.em_weighted):
        short = module.__name__.rpartition(".")[2]
        found.update(
            (f"{short}.{name}", _parameter_names(obj))
            for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
        )
    assert found == PUBLIC_SIGNATURES


def test_every_exported_name_resolves():
    missing = [name for name in wdmix.__all__ if not hasattr(wdmix, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(wdmix.__all__) == len(set(wdmix.__all__))


def test_version_matches_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        assert wdmix.__version__ == tomllib.load(handle)["project"]["version"]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(wdmix.__file__).parent.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_module_imports(path):
    # __init__ is skipped: its imports are re-exports.
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _fresh_interpreter(code: str):
    """Run ``code`` in a new interpreter on this package and parse its last line as JSON."""
    env = {**os.environ, "PYTHONPATH": str(Path(wdmix.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


_LOADED = "[m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.optimize'))]"


def test_import_loads_no_scipy_stats_or_optimize():
    # Every CLI command is a fresh process: scipy.stats alone doubled the
    # cold import time, and scipy.optimize cost about 0.1 s and 10 MB.
    loaded = _fresh_interpreter(
        f"import json, sys; import wdmix, wdmix.cli; print(json.dumps({_LOADED}))"
    )
    assert loaded == []


def test_micro_f1_and_evaluate_load_no_scipy_stats_or_optimize(tmp_path):
    # The cluster-to-class matching is NumPy's, so scoring F1 loads neither.
    data, prefix = tmp_path / "tiny.csv", tmp_path / "run"
    assert cli.main(["generate", "--profile", "easy", "--n", "62", "--outlier-fraction", "0.3",
                     "--seed", "0", "--out", str(data)]) == 0
    assert cli.main(["fit", "--input", str(data), "--k", "3", "--seed", "0", "--out", str(prefix)]) == 0
    evaluate = ["evaluate", "--model", f"{prefix}.model.json", "--truth", str(data),
                "--report", f"{prefix}.report.json", "--metrics", "db,f1,outliers", "--out", str(tmp_path / "m.json")]
    after_f1, f1, status, loaded = _fresh_interpreter(
        "import json, sys; import wdmix, wdmix.cli; "
        "f1 = wdmix.micro_f1([0, 0, 3, 3, 1, 1, 1, 1], [0, 0, 0, 0, 1, 1, 1, 1]); "
        f"after_f1 = {_LOADED}; status = wdmix.cli.main({evaluate!r}); "
        f"print(json.dumps([after_f1, f1, status, {_LOADED}]))"
    )
    assert after_f1 == [] and f1 == 12.0 / 14.0
    assert status == 0 and loaded == []
    assert set(json.loads((tmp_path / "m.json").read_text())) >= {"db_all", "micro_f1", "outliers"}


_SPATIAL = "sorted({m.split('.')[1] for m in sys.modules if m.startswith(('scipy.spatial', 'scipy.sparse'))})"


def test_only_knn_weights_load_scipy_spatial(tmp_path):
    # scipy.spatial, and the scipy.sparse it imports, cost about 5.5 MB of
    # peak RSS; only the k-d tree of the kNN weights needs them.
    data, prefix = tmp_path / "tiny.csv", tmp_path / "run"
    assert cli.main(["generate", "--profile", "easy", "--n", "62", "--outlier-fraction", "0.3",
                     "--seed", "0", "--out", str(data)]) == 0
    assert cli.main(["fit", "--input", str(data), "--k", "3", "--algorithm", "wd", "--seed", "0",
                     "--out", str(prefix)]) == 0
    generate = ["generate", "--profile", "easy", "--n", "40", "--seed", "1", "--out", str(tmp_path / "g.csv")]
    # A weighted model without --assignments would recompute the kNN weights.
    evaluate = ["evaluate", "--model", f"{prefix}.model.json", "--truth", str(data),
                "--assignments", f"{prefix}.assignments.csv", "--report", f"{prefix}.report.json",
                "--metrics", "db,f1,outliers", "--plot", str(tmp_path / "p.svg"), "--out", str(tmp_path / "m.json")]
    steps = _fresh_interpreter(
        "import json, sys\n"
        "import numpy as np\n"
        "import wdmix, wdmix.cli\n"
        f"steps = [{_SPATIAL}]\n"
        f"steps.append(wdmix.cli.main({generate!r}) or {_SPATIAL})\n"
        "gen = np.random.default_rng(0)\n"
        "points = np.vstack([gen.normal([-60.0, 0.0], 10.0, (80, 2)), gen.normal([60.0, 0.0], 10.0, (40, 2))])\n"
        "scene = wdmix.validate_dataset(points, modality=['a'] * 50 + ['v'] * 70)\n"
        "wdmix.analyze_segment(scene, wdmix.AvConfig(seed=0))\n"
        f"steps.append({_SPATIAL})\n"
        f"steps.append(wdmix.cli.main({evaluate!r}) or {_SPATIAL})\n"
        "wdmix.knn_kernel_weights(scene, q=5)\n"
        f"steps.append({_SPATIAL})\n"
        "print(json.dumps(steps))"
    )
    assert steps[:4] == [[], [], [], []]  # import, generate, analyze_segment, evaluate --assignments
    assert steps[4] == ["sparse", "spatial"]  # the control: the guard sees the kNN path's imports
    assert set(json.loads((tmp_path / "m.json").read_text())) >= {"db_all", "micro_f1", "outliers"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_every_private_name_is_referenced():
    # Module-level private functions, classes and constants, and private
    # methods, that no module of the package references are dead code.
    defined, referenced = set(), set()
    for path in Path(wdmix.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update((path.name, t.id) for t in targets if isinstance(t, ast.Name))
            if isinstance(node, ast.ClassDef):
                defined.update(
                    (path.name, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unused = sorted(
        f"{module}:{name}"
        for module, name in defined
        if _private(name.rpartition(".")[2]) and name.rpartition(".")[2] not in referenced
    )
    assert unused == []
