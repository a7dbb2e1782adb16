"""Command-line interface.

Four subcommands: ``generate`` writes benchmark CSVs, ``fit`` runs one of
the EM engines at a fixed component count, ``select`` searches the
component count by message length, and ``evaluate`` computes metrics (and
optionally an SVG scatter plot) from the written artifacts.  All commands
are deterministic for a given ``--seed``.

Exit codes: 0 on success, 1 on runtime or file errors, 2 on usage errors.
Warnings raised while a command runs are printed to stderr, each distinct
message once, as ``warning: <message>`` lines.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import warnings

import numpy as np

from . import em_fixed, em_weighted
from .core import (
    CovarianceShape,
    Dataset,
    FitConfig,
    FitReport,
    MixtureModel,
    WeightMode,
    WeightState,
    validate_dataset,
)
from .datagen import PROFILE_NAMES, contaminate_uniform, generate_sim
from .errors import DimensionMismatch, DimensionTooHigh, MalformedModel, NonRectangular, WdmixError
from .evaluation import davies_bouldin, micro_f1, outlier_score_report
from .initialization import default_weights, kmeans, model_from_labels
from .model_selection import MmlConfig, select_model

SCHEMA_VERSION = 1

# Each fit algorithm's EM module and the regime of its default weights; gmm
# runs fixed-weight EM on unit weights.
_ALGORITHMS = {
    "gmm": (em_fixed, None),
    "fwd": (em_fixed, WeightMode.FIXED),
    "wd": (em_weighted, WeightMode.RANDOM),
}


# ---------------------------------------------------------------------------
# dataset CSV


def write_dataset_csv(path, dataset: Dataset) -> None:
    """Header is x1..xd plus optional label and outlier columns."""
    cols = [f"x{j + 1}" for j in range(dataset.d)]
    if dataset.labels is not None:
        cols.append("label")
    if dataset.modality is not None:
        cols.append("modality")
    if dataset.outlier_flag is not None:
        cols.append("outlier")
    lines = [",".join(cols)]
    for i in range(dataset.n):
        row = [repr(float(v)) for v in dataset.points[i]]
        if dataset.labels is not None:
            row.append(str(int(dataset.labels[i])))
        if dataset.modality is not None:
            row.append(str(dataset.modality[i]))
        if dataset.outlier_flag is not None:
            row.append(str(int(dataset.outlier_flag[i])))
        lines.append(",".join(row))
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def read_dataset_csv(path) -> Dataset:
    with open(path, newline="") as handle:
        header = handle.readline().strip()
        if not header:
            raise WdmixError(f"{path}: empty dataset file")
        names = header.split(",")
        if len(set(names)) < len(names):
            raise WdmixError(f"{path} line 1: a column name appears twice")
        feature_idx = [i for i, name in enumerate(names) if name.startswith("x") and name[1:].isdigit()]
        if not feature_idx:
            raise WdmixError(f"{path}: no feature columns named x1..xd")
        label_idx = names.index("label") if "label" in names else None
        modality_idx = names.index("modality") if "modality" in names else None
        outlier_idx = names.index("outlier") if "outlier" in names else None
        points, labels, modality, flags = [], [], [], []
        for lineno, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            if "_" in line:  # float() and int() would read 1_5 as 15
                raise NonRectangular(f"{path} line {lineno}: '_' in a value")
            parts = line.split(",")
            if len(parts) != len(names):
                raise NonRectangular(f"{path} line {lineno}: {len(parts)} fields under {len(names)} header columns")
            try:
                points.append([float(parts[i]) for i in feature_idx])
                if label_idx is not None:
                    labels.append(_whole_number(parts[label_idx], "label", path, lineno))
                if modality_idx is not None:
                    modality.append(parts[modality_idx])
                if outlier_idx is not None:
                    flags.append(_whole_number(parts[outlier_idx], "outlier", path, lineno))
            except WdmixError:
                raise
            except ValueError:
                raise NonRectangular(f"{path} line {lineno}: a non-numeric value") from None
            if labels and not -(2**63) <= labels[-1] < 2**63:
                raise NonRectangular(f"{path} line {lineno}: label {labels[-1]} does not fit in 64 bits")
            if modality and modality[-1] not in ("a", "v") or flags and flags[-1] not in (0, 1):
                raise NonRectangular(f"{path} line {lineno}: modality must be 'a' or 'v' and outlier 0 or 1")
    return validate_dataset(points, labels or None, modality or None, flags or None)


def _whole_number(cell: str, column: str, path, lineno: int) -> int:
    """A ``label`` or ``outlier`` cell as an int: integer text exactly, else a whole-number float."""
    try:
        return int(cell)
    except ValueError:
        pass
    with contextlib.suppress(ValueError):
        value = float(cell)
        if value.is_integer():
            return int(value)
    raise NonRectangular(f"{path} line {lineno}: {column} {cell.strip()!r} is not a whole number")


# ---------------------------------------------------------------------------
# model / report / assignment artifacts


def _write_json(path, payload) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def write_assignments_csv(path, assignments) -> None:
    lines = ["index,cluster"]
    lines.extend(f"{i},{int(c)}" for i, c in enumerate(assignments))
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_run(prefix, algorithm: str, report: FitReport, meta: dict, **summary) -> None:
    """Model, report and assignment files of one fit or selection run.

    ``summary`` holds the report fields after the shared ones; the weight
    means follow whenever the run recorded marginal weight means.
    """
    _write_json(prefix + ".model.json", {**report.final_model.to_dict(), "fit": meta})
    payload = {
        "schema_version": SCHEMA_VERSION,
        "algorithm": algorithm,
        "objective_trace": list(report.objective_trace),
        "iterations": report.iterations,
        "converged": report.converged,
        **summary,
    }
    if report.final_weights.marginal_mean is not None:
        payload["weight_means"] = [float(v) for v in report.final_weights.marginal_mean]
    _write_json(prefix + ".report.json", payload)
    write_assignments_csv(prefix + ".assignments.csv", report.final_responsibilities.hard_assignments())


def read_assignments_csv(path) -> np.ndarray:
    with open(path, newline="") as handle:
        header = handle.readline().strip()
        if header != "index,cluster":
            raise WdmixError(f"{path}: not an assignments file")
        clusters = []
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            if "_" in line:
                raise NonRectangular(f"{path} line {lineno}: '_' in a value")
            try:
                index, cluster = (int(field) for field in line.split(","))
            except ValueError:
                raise NonRectangular(f"{path} line {lineno}: expected index,cluster") from None
            if index != len(clusters):
                raise NonRectangular(f"{path} line {lineno}: index {index}, expected {len(clusters)}")
            if not -(2**63) <= cluster < 2**63:
                raise NonRectangular(f"{path} line {lineno}: cluster id {cluster} does not fit in 64 bits")
            clusters.append(cluster)
        return np.array(clusters, dtype=np.int64)


def assignments_from_model(dataset: Dataset, model: MixtureModel, meta) -> np.ndarray:
    """Recompute hard assignments for a dataset from a saved model.

    Uses the model file's ``fit`` metadata ``meta`` (algorithm, kernel
    settings) to repeat the assignment step with the prior weights, as
    ``fit`` and a fixed-weight ``select`` assign.  A random-weight ``select``
    assigns with per-component posterior rates, which the model file does
    not hold; its metadata says the rates were carried, so such a model
    raises WdmixError and its run's assignment file must be passed instead.
    """
    if not isinstance(meta, dict):
        raise MalformedModel("model file's 'fit' field must be a JSON object")
    algorithm = meta.get("algorithm", "gmm")
    if not isinstance(algorithm, str) or algorithm not in _ALGORITHMS:
        raise WdmixError(f"unknown algorithm {algorithm!r} in model file")
    engine, mode = _ALGORITHMS[algorithm]
    if mode == WeightMode.RANDOM and meta.get("assignment_rates") == "carried":
        raise WdmixError(
            "the model was selected with carried gamma rates, which the model file "
            "does not hold; pass the run's assignments with --assignments"
        )
    weights = np.ones(dataset.n)
    if mode is not None:
        q, sigma = meta.get("q"), meta.get("sigma")
        try:
            if type(q) is not int or type(sigma) not in (int, float):
                raise TypeError
            sigma = float(sigma)
        except (TypeError, OverflowError):
            raise MalformedModel("model file's fit metadata needs numeric 'q' and 'sigma' fields") from None
        weights = default_weights(dataset, mode, q, sigma)
    e_step = engine.e_step_assignments if engine is em_weighted else engine.e_step
    return e_step(dataset, model, weights).hard_assignments()


# ---------------------------------------------------------------------------
# SVG scatter plot (hand-rolled so output is byte-stable)

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)
_SVG_SIZE = 640.0
_SVG_PAD = 40.0


def write_scatter_svg(path, dataset: Dataset, assignments, model: MixtureModel, weight_means=None) -> None:
    """Scatter of a 2-D dataset colored by cluster with 2-sigma ellipses.

    Points whose posterior weight mean falls below half the median are drawn
    as small grey markers (likely contamination).
    """
    if dataset.d != 2:
        raise DimensionTooHigh("scatter plots need 2-D data")
    pts = dataset.points
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    scale = (_SVG_SIZE - 2.0 * _SVG_PAD) / float(np.max(span))

    def to_xy(p):
        x = _SVG_PAD + (p[0] - lo[0]) * scale
        y = _SVG_SIZE - _SVG_PAD - (p[1] - lo[1]) * scale
        return x, y

    low_weight = np.zeros(dataset.n, dtype=bool)
    if weight_means is not None:
        wm = np.asarray(weight_means, dtype=np.float64)
        low_weight = wm < 0.5 * float(np.median(wm))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE:.0f}" '
        f'height="{_SVG_SIZE:.0f}" viewBox="0 0 {_SVG_SIZE:.0f} {_SVG_SIZE:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for i in range(dataset.n):
        x, y = to_xy(pts[i])
        if low_weight[i]:
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.5" fill="#999999"/>')
        else:
            color = _PALETTE[int(assignments[i]) % len(_PALETTE)]
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="{color}" fill-opacity="0.7"/>')
    for j, comp in enumerate(model.components):
        color = _PALETTE[j % len(_PALETTE)]
        cov = comp.full_covariance()
        vals, vecs = np.linalg.eigh(cov)
        vals = np.maximum(vals, 0.0)
        rx = 2.0 * float(np.sqrt(vals[1])) * scale
        ry = 2.0 * float(np.sqrt(vals[0])) * scale
        angle = float(np.degrees(np.arctan2(vecs[1, 1], vecs[0, 1])))
        cx, cy = to_xy(comp.mean)
        parts.append(
            f'<ellipse cx="{cx:.2f}" cy="{cy:.2f}" rx="{rx:.2f}" ry="{ry:.2f}" '
            f'transform="rotate({-angle:.2f} {cx:.2f} {cy:.2f})" '
            f'fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="{color}" stroke="black"/>')
    parts.append("</svg>")
    with open(path, "w") as handle:
        handle.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_generate(args) -> int:
    dataset = generate_sim(args.profile, n_inliers=args.n, seed=args.seed)
    # At fraction 0 this validates both flags and returns the same dataset.
    dataset = contaminate_uniform(dataset, args.outlier_fraction, margin=args.margin, seed=args.seed)
    write_dataset_csv(args.out, dataset)
    return 0


def _fit_dataset(args, dataset: Dataset):
    shape = CovarianceShape(args.covariance)
    labels, _ = kmeans(dataset, args.k, restarts=args.restarts, seed=args.seed)
    initial = model_from_labels(dataset, labels, shape)
    config = FitConfig(max_iter=args.max_iter, rel_tol=args.tol)
    engine, mode = _ALGORITHMS[args.algorithm]
    weights = np.ones(dataset.n) if mode is None else default_weights(dataset, mode, args.q, args.sigma)
    return engine.fit(dataset, initial, weights, config)


def _cmd_fit(args) -> int:
    dataset = read_dataset_csv(args.input)
    report = _fit_dataset(args, dataset)
    meta = {"algorithm": args.algorithm, "seed": args.seed}
    if _ALGORITHMS[args.algorithm][1] is not None:
        meta.update(q=args.q, sigma=args.sigma)
    _write_run(args.out, args.algorithm, report, meta)
    return 0


def _cmd_select(args) -> int:
    dataset = read_dataset_csv(args.input)
    config = MmlConfig(
        k_high=args.k_high,
        k_low=args.k_low,
        epsilon=args.epsilon,
        max_outer_iter=args.max_sweeps,
        weight_mode=WeightMode(args.weight_mode),
    )
    report = select_model(
        dataset,
        config,
        weights=default_weights(dataset, config.weight_mode, args.q, args.sigma),
        covariance_shape=CovarianceShape(args.covariance),
        seed=args.seed,
        restarts=args.restarts,
    )
    algorithm = "wd" if config.weight_mode == WeightMode.RANDOM else "fwd"
    meta = {
        "algorithm": algorithm,
        "seed": args.seed,
        "q": args.q,
        "sigma": args.sigma,
        "assignment_rates": "carried",
    }
    _write_run(
        args.out,
        "select-" + algorithm,
        report,
        meta,
        selected_k=report.final_model.n_components,
        kplus_history=list(report.kplus_history),
        checkpoint_lengths=list(report.checkpoint_lengths),
        best_length=report.best_length,
        annihilation_log=[
            [event.iteration, event.component, event.proportion]
            for event in report.annihilation_log
        ],
    )
    return 0


def _cmd_evaluate(args) -> int:
    dataset = read_dataset_csv(args.truth)
    with open(args.model) as handle:
        payload = json.load(handle)
    model = MixtureModel.from_dict(payload)
    if model.d != dataset.d:
        raise DimensionMismatch(f"the model is {model.d}-D but the data are {dataset.d}-D")
    if args.assignments:
        assignments = read_assignments_csv(args.assignments)
        if assignments.shape[0] != dataset.n:
            raise WdmixError("assignments and dataset disagree in length")
    else:
        assignments = assignments_from_model(dataset, model, payload.get("fit", {}))
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = set(metrics) - {"db", "f1", "outliers"}
    if unknown:
        raise WdmixError(f"unknown metrics {sorted(unknown)}")
    weights = None  # the report's weight means, validated once for every use
    if args.report:
        with open(args.report) as handle:
            report_payload = json.load(handle)
        if not isinstance(report_payload, dict):
            raise WdmixError(f"{args.report}: not a report object")
        if "weight_means" in report_payload:
            means = report_payload["weight_means"]
            try:
                if not isinstance(means, list) or any(type(v) not in (int, float) for v in means):
                    raise TypeError
                means = [float(v) for v in means]
            except (TypeError, OverflowError):
                raise WdmixError(f"{args.report}: weight_means must be a flat list of numbers") from None
            ones = np.ones(dataset.n)
            weights = WeightState(WeightMode.RANDOM, prior_alpha=ones, prior_beta=ones, marginal_mean=means)

    out: dict = {"schema_version": SCHEMA_VERSION}
    centers = np.vstack([comp.mean for comp in model.components])
    if "db" in metrics:
        out["db_all"] = davies_bouldin(dataset.points, assignments, centers)
        if dataset.outlier_flag is not None and np.any(dataset.outlier_flag):
            inl = ~dataset.outlier_flag
            try:
                out["db_inliers"] = davies_bouldin(dataset.points[inl], assignments[inl], centers)
            except WdmixError:
                out["db_inliers"] = None
    if "f1" in metrics:
        if dataset.labels is None:
            raise WdmixError("micro F1 requires a label column in the truth CSV")
        out["micro_f1"] = micro_f1(assignments, dataset.labels)
    if "outliers" in metrics:
        if weights is None:
            raise WdmixError("outlier scoring requires --report with weight means")
        score = outlier_score_report(weights, dataset.outlier_flag)
        out["outliers"] = {
            "inlier_mean_weight": score.inlier_mean_weight,
            "outlier_mean_weight": score.outlier_mean_weight,
            "auc": score.auc,
        }
    if args.plot:
        if dataset.d == 2:
            write_scatter_svg(
                args.plot, dataset, assignments, model, None if weights is None else weights.marginal_mean
            )
        else:
            print(f"warning: skipping plot, data is {dataset.d}-D", file=sys.stderr)
    if args.out:
        _write_json(args.out, out)
    else:
        json.dump(out, sys.stdout, indent=2)
        print()
    return 0


# ---------------------------------------------------------------------------
# parser


def _seed(text: str) -> int:
    """The ``--seed`` type: a non-negative integer, as ``np.random.default_rng`` requires."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wdmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a benchmark dataset CSV")
    gen.add_argument("--profile", choices=PROFILE_NAMES, required=True)
    gen.add_argument("--n", type=int, default=600, help="number of inliers")
    gen.add_argument("--outlier-fraction", type=float, default=0.0)
    gen.add_argument("--margin", type=float, default=0.1)
    gen.add_argument("--seed", type=_seed, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    run = argparse.ArgumentParser(add_help=False)  # flags shared by fit and select
    run.add_argument("--input", required=True)
    run.add_argument("--q", type=int, default=20, help="neighbours for kernel weights")
    run.add_argument("--sigma", type=float, default=100.0, help="kernel bandwidth")
    run.add_argument("--covariance", choices=("full", "diagonal"), default="full")
    run.add_argument("--restarts", type=int, default=10)
    run.add_argument("--seed", type=_seed, default=0)
    run.add_argument("--out", required=True, help="output path prefix")

    fit = sub.add_parser("fit", parents=[run], help="fit a mixture at a fixed component count")
    fit.add_argument("--algorithm", choices=tuple(_ALGORITHMS), default="wd")
    fit.add_argument("--k", type=int, required=True)
    fit.add_argument("--max-iter", type=int, default=400)
    fit.add_argument("--tol", type=float, default=0.01)
    fit.set_defaults(func=_cmd_fit)

    sel = sub.add_parser("select", parents=[run], help="choose the component count by message length")
    sel.add_argument("--k-high", type=int, required=True)
    sel.add_argument("--k-low", type=int, default=1)
    sel.add_argument("--epsilon", type=float, default=1e-5)
    sel.add_argument("--max-sweeps", type=int, default=2000)
    sel.add_argument("--weight-mode", choices=("random", "fixed"), default="random")
    sel.set_defaults(func=_cmd_select)

    ev = sub.add_parser("evaluate", help="compute metrics from written artifacts")
    ev.add_argument("--assignments")
    ev.add_argument("--model", required=True)
    ev.add_argument("--truth", required=True, help="dataset CSV with ground truth columns")
    ev.add_argument("--metrics", default="db", help="comma-separated: db,f1,outliers")
    ev.add_argument("--report", help="fit report JSON (for weight means)")
    ev.add_argument("--plot", help="optional SVG scatter output (2-D only)")
    ev.add_argument("--out", help="metrics JSON path (default: stdout)")
    ev.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    failure = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            status = args.func(args)
        except (WdmixError, OSError, json.JSONDecodeError) as exc:
            status, failure = 1, f"error: {exc}"
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if failure:
        print(failure, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
