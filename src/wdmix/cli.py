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
import json
import sys
import warnings

import numpy as np

from . import em_fixed, em_weighted
from .core import (
    CovarianceShape,
    Dataset,
    FitConfig,
    MixtureModel,
    WeightMode,
    WeightState,
    validate_dataset,
)
from .datagen import PROFILE_NAMES, contaminate_uniform, generate_sim
from .errors import DimensionTooHigh, WdmixError
from .evaluation import davies_bouldin, micro_f1, outlier_score_report
from .initialization import kmeans, knn_kernel_weights, model_from_labels, pipeline_gamma_priors
from .model_selection import MmlConfig, select_model

SCHEMA_VERSION = 1


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
        feature_idx = [i for i, name in enumerate(names) if name.startswith("x") and name[1:].isdigit()]
        if not feature_idx:
            raise WdmixError(f"{path}: no feature columns named x1..xd")
        label_idx = names.index("label") if "label" in names else None
        modality_idx = names.index("modality") if "modality" in names else None
        outlier_idx = names.index("outlier") if "outlier" in names else None
        points, labels, modality, flags = [], [], [], []
        for line in handle:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            points.append([float(parts[i]) for i in feature_idx])
            if label_idx is not None:
                labels.append(int(parts[label_idx]))
            if modality_idx is not None:
                modality.append(parts[modality_idx])
            if outlier_idx is not None:
                flags.append(bool(int(parts[outlier_idx])))
    return validate_dataset(
        np.asarray(points),
        labels=np.asarray(labels) if labels else None,
        modality=np.asarray(modality) if modality else None,
        outlier_flag=np.asarray(flags) if flags else None,
    )


# ---------------------------------------------------------------------------
# model / report / assignment artifacts


def _model_payload(model: MixtureModel, fit_meta: dict) -> dict:
    payload = model.to_dict()
    payload["fit"] = fit_meta
    return payload


def _write_json(path, payload) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _assignments_text(assignments) -> str:
    lines = ["index,cluster"]
    lines.extend(f"{i},{int(c)}" for i, c in enumerate(assignments))
    return "\n".join(lines) + "\n"


def write_assignments_csv(path, assignments) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(_assignments_text(assignments))


def read_assignments_csv(path) -> np.ndarray:
    with open(path, newline="") as handle:
        header = handle.readline().strip()
        if header != "index,cluster":
            raise WdmixError(f"{path}: not an assignments file")
        return np.array([int(line.split(",")[1]) for line in handle if line.strip()], dtype=np.int64)


def assignments_from_model(dataset: Dataset, payload: dict) -> np.ndarray:
    """Recompute hard assignments for a dataset from a saved model payload.

    Uses the recorded fit metadata (algorithm, kernel settings) so the
    result is byte-for-byte the assignment file the fit itself wrote.
    """
    model = MixtureModel.from_dict(payload)
    meta = payload.get("fit", {})
    algorithm = meta.get("algorithm", "gmm")
    if algorithm == "gmm":
        return em_fixed.e_step(dataset, model, np.ones(dataset.n)).hard_assignments()
    if algorithm not in ("fwd", "wd"):
        raise WdmixError(f"unknown algorithm {algorithm!r} in model file")
    w = knn_kernel_weights(dataset, q=int(meta["q"]), bandwidth=float(meta["sigma"]))
    if algorithm == "fwd":
        return em_fixed.e_step(dataset, model, w).hard_assignments()
    return em_weighted.e_step_assignments(dataset, model, pipeline_gamma_priors(w)).hard_assignments()


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
    if args.outlier_fraction > 0.0:
        dataset = contaminate_uniform(
            dataset, args.outlier_fraction, margin=args.margin, seed=args.seed
        )
    write_dataset_csv(args.out, dataset)
    return 0


def _fit_dataset(args, dataset: Dataset):
    shape = CovarianceShape(args.covariance)
    labels, _ = kmeans(dataset, args.k, restarts=args.restarts, seed=args.seed)
    initial = model_from_labels(dataset, labels, shape)
    config = FitConfig(max_iter=args.max_iter, rel_tol=args.tol)
    if args.algorithm == "gmm":
        return em_fixed.fit(dataset, initial, np.ones(dataset.n), config)
    w = knn_kernel_weights(dataset, q=args.q, bandwidth=args.sigma)
    if args.algorithm == "fwd":
        return em_fixed.fit(dataset, initial, w, config)
    return em_weighted.fit(dataset, initial, pipeline_gamma_priors(w), config)


def _cmd_fit(args) -> int:
    dataset = read_dataset_csv(args.input)
    report = _fit_dataset(args, dataset)
    meta = {"algorithm": args.algorithm, "seed": args.seed}
    if args.algorithm in ("fwd", "wd"):
        meta["q"] = args.q
        meta["sigma"] = args.sigma
    _write_json(args.out + ".model.json", _model_payload(report.final_model, meta))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "algorithm": args.algorithm,
        "objective_trace": list(report.objective_trace),
        "iterations": report.iterations,
        "converged": report.converged,
    }
    if args.algorithm == "wd":
        payload["weight_means"] = [float(v) for v in report.final_weights.marginal_mean]
    _write_json(args.out + ".report.json", payload)
    write_assignments_csv(
        args.out + ".assignments.csv", report.final_responsibilities.hard_assignments()
    )
    return 0


def _cmd_select(args) -> int:
    dataset = read_dataset_csv(args.input)
    config = MmlConfig(
        k_high=args.k_high,
        k_low=args.k_low,
        epsilon=args.epsilon,
        max_outer_iter=args.max_sweeps,
        weight_mode=WeightMode(args.weight_mode),
        assignment_rates=args.assignment_rates,
    )
    report = select_model(
        dataset,
        config,
        covariance_shape=CovarianceShape(args.covariance),
        seed=args.seed,
        restarts=args.restarts,
        q=args.q,
        bandwidth=args.sigma,
    )
    algorithm = "wd" if config.weight_mode == WeightMode.RANDOM else "fwd"
    meta = {"algorithm": algorithm, "seed": args.seed, "q": args.q, "sigma": args.sigma}
    _write_json(args.out + ".model.json", _model_payload(report.final_model, meta))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "algorithm": "select-" + algorithm,
        "objective_trace": list(report.objective_trace),
        "iterations": report.iterations,
        "converged": report.converged,
        "selected_k": report.final_model.n_components,
        "kplus_history": list(report.kplus_history),
        "checkpoint_lengths": list(report.checkpoint_lengths),
        "best_length": report.best_length,
        "annihilation_log": [
            [event.iteration, event.component, event.proportion]
            for event in report.annihilation_log
        ],
    }
    if report.final_weights is not None and report.final_weights.marginal_mean is not None:
        payload["weight_means"] = [float(v) for v in report.final_weights.marginal_mean]
    _write_json(args.out + ".report.json", payload)
    write_assignments_csv(
        args.out + ".assignments.csv", report.final_responsibilities.hard_assignments()
    )
    return 0


def _cmd_evaluate(args) -> int:
    dataset = read_dataset_csv(args.truth)
    with open(args.model) as handle:
        payload = json.load(handle)
    model = MixtureModel.from_dict(payload)
    if args.assignments:
        assignments = read_assignments_csv(args.assignments)
        if assignments.shape[0] != dataset.n:
            raise WdmixError("assignments and dataset disagree in length")
    else:
        assignments = assignments_from_model(dataset, payload)
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = set(metrics) - {"db", "f1", "outliers"}
    if unknown:
        raise WdmixError(f"unknown metrics {sorted(unknown)}")
    weight_means = None
    if args.report:
        with open(args.report) as handle:
            report_payload = json.load(handle)
        if "weight_means" in report_payload:
            weight_means = np.asarray(report_payload["weight_means"], dtype=np.float64)

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
        if weight_means is None:
            raise WdmixError("outlier scoring requires --report with weight means")
        state = WeightState.random_prior(np.ones(dataset.n), np.ones(dataset.n))
        state = state.with_posterior(np.ones(dataset.n), np.ones((dataset.n, 1)))
        state = state.with_marginal(weight_means)
        score = outlier_score_report(state, dataset.outlier_flag)
        out["outliers"] = {
            "inlier_mean_weight": score.inlier_mean_weight,
            "outlier_mean_weight": score.outlier_mean_weight,
            "auc": score.auc,
        }
    if args.plot:
        if dataset.d == 2:
            write_scatter_svg(args.plot, dataset, assignments, model, weight_means)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wdmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a benchmark dataset CSV")
    gen.add_argument("--profile", choices=PROFILE_NAMES, required=True)
    gen.add_argument("--n", type=int, default=600, help="number of inliers")
    gen.add_argument("--outlier-fraction", type=float, default=0.0)
    gen.add_argument("--margin", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    fit = sub.add_parser("fit", help="fit a mixture at a fixed component count")
    fit.add_argument("--input", required=True)
    fit.add_argument("--algorithm", choices=("gmm", "fwd", "wd"), default="wd")
    fit.add_argument("--k", type=int, required=True)
    fit.add_argument("--q", type=int, default=20, help="neighbours for kernel weights")
    fit.add_argument("--sigma", type=float, default=100.0, help="kernel bandwidth")
    fit.add_argument("--covariance", choices=("full", "diagonal"), default="full")
    fit.add_argument("--max-iter", type=int, default=400)
    fit.add_argument("--tol", type=float, default=0.01)
    fit.add_argument("--restarts", type=int, default=10)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--out", required=True, help="output path prefix")
    fit.set_defaults(func=_cmd_fit)

    sel = sub.add_parser("select", help="choose the component count by message length")
    sel.add_argument("--input", required=True)
    sel.add_argument("--k-high", type=int, required=True)
    sel.add_argument("--k-low", type=int, default=1)
    sel.add_argument("--epsilon", type=float, default=1e-5)
    sel.add_argument("--max-sweeps", type=int, default=2000)
    sel.add_argument("--weight-mode", choices=("random", "fixed"), default="random")
    sel.add_argument("--assignment-rates", choices=("carried", "prior"), default="carried")
    sel.add_argument("--q", type=int, default=20)
    sel.add_argument("--sigma", type=float, default=100.0)
    sel.add_argument("--covariance", choices=("full", "diagonal"), default="full")
    sel.add_argument("--restarts", type=int, default=10)
    sel.add_argument("--seed", type=int, default=0)
    sel.add_argument("--out", required=True, help="output path prefix")
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
