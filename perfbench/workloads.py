"""The benchmark workloads: inputs made from a seed, timed ops, output checks.

Every workload drives wdmix through its public API only, looking functions
up on the ``wdmix`` package or its modules at call time so the traced run
sees them.  An op's ``run`` is the timed part; its ``check`` validates the
output, outside the timed region, and turns it into an :class:`Outcome`.
Ops that share a ``key`` must produce identical outcomes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import wdmix
from wdmix import av_fusion, cli, model_selection


# Sweep budget of every selection here: the MmlConfig default, which
# analyze_segment and ``wdmix select`` also use.
SWEEP_BUDGET = 2000


class CheckFailed(Exception):
    """An op returned output that violates an invariant."""


@dataclass
class Outcome:
    """Checked result of one op.

    ``units`` counts the work units the op ran (see ``Workload.unit``),
    ``record`` goes into the run report, and ``counters`` are per-layer
    counts read from the op's outputs.
    """

    digest: str
    units: int
    record: dict
    counters: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    key: str | None = None

    @property
    def same_as(self) -> str:
        return self.key or self.name


def digest(*parts) -> str:
    """SHA-256 over arrays (shape, dtype and bytes) and plain values (repr)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.shape, part.dtype.str)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def dataset_digest(data) -> str:
    return digest(data.points, data.labels, data.modality, data.outlier_flag)


def model_digest(model) -> str:
    parts = [model.proportions]
    for comp in model.components:
        parts += [comp.mean, comp.covariance]
    return digest(*parts)


def stop_cause(converged: bool, iterations: int, budget: int) -> str:
    """Why a solver stopped, inferred from outside the library."""
    if converged:
        return "tolerance"
    if iterations >= budget:
        return "budget"
    return "all_annihilated"


def solver_record(solver: str, converged: bool, iterations: int, budget: int, k: int) -> dict:
    return {
        "solver": solver,
        "iterations": int(iterations),
        "budget": int(budget),
        "converged": bool(converged),
        "stop": stop_cause(converged, iterations, budget),
        "k": int(k),
    }


def component_sweeps(kplus_history) -> int:
    """Component updates a selection ran: each sweep updates every surviving
    component once, so its cost grows with K+ as well as with the sweeps."""
    return int(sum(kplus_history))


def report_record(solver: str, report, budget: int) -> dict:
    return solver_record(
        solver, report.converged, report.iterations, budget, report.final_model.n_components
    )


# ---------------------------------------------------------------------------
# checks shared by the workloads


def check_model(model, k_max: int) -> None:
    pis = model.proportions
    if not np.all(np.isfinite(pis)) or np.any(pis < 0.0) or abs(float(pis.sum()) - 1.0) > 1e-8:
        raise CheckFailed("mixing proportions are not a finite probability vector")
    if not 1 <= model.n_components <= k_max:
        raise CheckFailed(f"{model.n_components} components, expected 1..{k_max}")
    for comp in model.components:
        finite = np.all(np.isfinite(comp.mean)) and np.all(np.isfinite(comp.covariance))
        if not finite or not np.isfinite(comp.log_det):
            raise CheckFailed("a component has non-finite parameters")


def check_report(report, k_max: int) -> None:
    """Model, responsibilities, weights and objective of a FitReport are valid."""
    check_model(report.final_model, k_max)
    eta = report.final_responsibilities.matrix
    if eta.shape[1] != report.final_model.n_components or not np.all(np.isfinite(eta)):
        raise CheckFailed("responsibilities do not match the model or are not finite")
    weights = report.final_weights
    if weights is not None and weights.marginal_mean is not None:
        wbar = weights.marginal_mean
        if not np.all(np.isfinite(wbar)) or np.any(wbar <= 0.0):
            raise CheckFailed("posterior weight means are not positive and finite")
    trace = np.asarray(report.objective_trace, dtype=np.float64)
    if not np.all(np.isfinite(trace)):
        raise CheckFailed("objective trace is not finite")
    if report.best_length is not None and not np.isfinite(report.best_length):
        raise CheckFailed("best message length is not finite")


def check_em_ascent(report) -> None:
    """EM never lowers its log-likelihood; allow rounding in the last digits."""
    trace = np.asarray(report.objective_trace, dtype=np.float64)
    drops = trace[:-1] - trace[1:]
    if np.any(drops > 1e-9 * np.abs(trace[:-1])):
        raise CheckFailed("EM objective decreased")


def hard_labels(report) -> np.ndarray:
    return report.final_responsibilities.hard_assignments()


def davies_bouldin_of(report, points) -> float:
    """Davies-Bouldin over all points with empty components dropped."""
    hard = hard_labels(report)
    present = np.unique(hard)
    if present.size < 2:
        return float("inf")
    centers = np.vstack([report.final_model.components[j].mean for j in present])
    return wdmix.davies_bouldin(points, np.searchsorted(present, hard), centers)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Base class: ``unit`` names what ``Outcome.units`` counts."""

    name = ""
    unit = ""

    def seeds(self, seed: int) -> dict:
        raise NotImplementedError

    def build(self, seed: int):
        raise NotImplementedError

    def input_digest(self, inputs) -> str:
        raise NotImplementedError

    def warm_up(self, inputs) -> None:
        raise NotImplementedError

    def ops(self, inputs) -> list:
        raise NotImplementedError

    def summarize(self, outcomes: list) -> dict:
        """Named quality metrics; ``quality_score`` is the gated one."""
        raise NotImplementedError


class SelectEasy600(Workload):
    """Message-length selection on the five-cluster 'easy' profile.

    Nine selections per seed: 0/30/50% uniform contamination, each in
    random-weight (wd), fixed kernel-weight (fwd) and unit-weight (gmm) mode.
    """

    name = "select_easy600"
    unit = "component-sweep"
    FRACTIONS = (0.0, 0.3, 0.5)
    MODES = ("wd", "fwd", "gmm")
    TRUE_K = 5

    def __init__(self, n: int = 600, k_high: int = 15):
        self.n = n
        self.k_high = k_high

    def seeds(self, seed):
        return {"generate_sim": seed, "contaminate_uniform": seed + 1, "kmeans": seed}

    def build(self, seed):
        s = self.seeds(seed)
        base = wdmix.generate_sim("easy", self.n, seed=s["generate_sim"])
        data = {
            frac: wdmix.contaminate_uniform(base, frac, seed=s["contaminate_uniform"])
            for frac in self.FRACTIONS
        }
        return {"seed": s["kmeans"], "data": data}

    def input_digest(self, inputs):
        return digest(inputs["seed"], *[dataset_digest(d) for d in inputs["data"].values()])

    def warm_up(self, inputs):
        small = wdmix.generate_sim("easy", 150, seed=inputs["seed"])
        self._select(small, "wd", inputs["seed"], k_high=4)
        self._select(small, "fwd", inputs["seed"], k_high=4)

    def ops(self, inputs):
        out = []
        for frac, data in inputs["data"].items():
            for mode in self.MODES:
                out.append(
                    Op(
                        f"{mode}@{frac:.1f}",
                        functools.partial(self._select, data, mode, inputs["seed"]),
                        functools.partial(self._check, data, mode, frac),
                    )
                )
        return out

    def _select(self, data, mode, seed, k_high=None):
        k_high = k_high or self.k_high
        if mode == "wd":
            return wdmix.select_model(data, wdmix.MmlConfig(k_high=k_high), seed=seed)
        weights = wdmix.knn_kernel_weights(data) if mode == "fwd" else np.ones(data.n)
        config = wdmix.MmlConfig(k_high=k_high, weight_mode=wdmix.WeightMode.FIXED)
        return wdmix.select_model(data, config, weights=weights, seed=seed)

    def _check(self, data, mode, frac, report):
        check_report(report, self.k_high)
        record = {
            "mode": mode,
            "fraction": frac,
            "solvers": [report_record("select_model", report, SWEEP_BUDGET)],
            "db": davies_bouldin_of(report, data.points),
        }
        inliers = ~data.outlier_flag
        record["f1"] = wdmix.micro_f1(hard_labels(report)[inliers], data.labels[inliers])
        return Outcome(
            digest(model_digest(report.final_model), report.iterations, report.converged),
            component_sweeps(report.kplus_history),
            record,
        )

    def summarize(self, outcomes):
        by_case = {(o.record["mode"], o.record["fraction"]): o.record for o in outcomes}
        wd = [r for (mode, _), r in by_case.items() if mode == "wd"]
        wins = []
        for frac in self.FRACTIONS[1:]:
            cases = [by_case.get((mode, frac)) for mode in self.MODES]
            if None not in cases:
                db_wd, db_fwd, db_gmm = (c["db"] for c in cases)
                wins.append(db_wd < db_fwd and db_wd < db_gmm)
        return {
            "k_recovered_frac": (_mean(r["solvers"][0]["k"] == self.TRUE_K for r in wd), "frac"),
            "db_win_frac": (_mean(wins), "frac"),
            "quality_score": (_mean(r["f1"] for r in wd), "frac"),
        }


def two_speaker_scene(seed: int):
    """Speaker A at (-60, 0) emits audio and is visible; B at (60, 0) is a
    silent visible object.  The scene of the audio-visual acceptance test."""
    gen = np.random.default_rng(seed)
    audio = gen.normal([-60.0, 0.0], 10.0, size=(50, 2))
    visual_a = gen.normal([-60.0, 0.0], 10.0, size=(30, 2))
    visual_b = gen.normal([60.0, 0.0], 10.0, size=(40, 2))
    points = np.vstack([audio, visual_a, visual_b])
    tags = np.array(["a"] * 50 + ["v"] * 70)
    order = gen.permutation(120)
    return wdmix.validate_dataset(points[order], modality=tags[order])


class AvScenes(Workload):
    """``analyze_segment`` plus speaker detection on consecutive scenes.

    Scenes that exhaust the sweep budget are kept: they are part of the
    workload, and their count is reported.
    """

    name = "av_scenes"
    unit = "component-sweep"
    SPEAKER = (-60.0, 0.0)
    K_HIGH = 5

    def __init__(self, scenes: int = 8):
        self.scenes = scenes

    def seeds(self, seed):
        return {"scenes": list(range(seed, seed + self.scenes))}

    def build(self, seed):
        return [(s, two_speaker_scene(s)) for s in self.seeds(seed)["scenes"]]

    def input_digest(self, inputs):
        return digest(*[(s, dataset_digest(scene)) for s, scene in inputs])

    def warm_up(self, inputs):
        seed, scene = inputs[0]
        weights = wdmix.cross_modal_weights(scene)
        priors = wdmix.pipeline_gamma_priors(weights)
        config = wdmix.MmlConfig(k_high=3, max_outer_iter=50)
        report = wdmix.select_model(scene, config, weights=priors, seed=seed, restarts=2)
        tags, _ = wdmix.classify_components(report.final_responsibilities, scene.modality)
        wdmix.correct_detection(self.SPEAKER, report.final_model, tags)

    def ops(self, inputs):
        return [
            Op(
                f"scene{s}",
                functools.partial(self._analyze, scene, s),
                self._check,
            )
            for s, scene in inputs
        ]

    def _analyze(self, scene, seed):
        # analyze_segment does not return its FitReport; a tap on the name it
        # calls captures it.
        reports = []
        installed = av_fusion.select_model

        def tap(*args, **kwargs):
            report = model_selection.select_model(*args, **kwargs)
            reports.append(report)
            return report

        av_fusion.select_model = tap
        try:
            result = wdmix.analyze_segment(scene, wdmix.AvConfig(seed=seed))
        finally:
            av_fusion.select_model = installed
        detected = wdmix.correct_detection(self.SPEAKER, result.model, result.tags)
        return result, reports[0], detected

    def _check(self, output):
        result, report, detected = output
        check_report(report, self.K_HIGH)
        if result.model is not report.final_model:
            raise CheckFailed("segment model is not the selected model")
        k = result.model.n_components
        if len(result.tags) != k or result.relevance.shape != (k,):
            raise CheckFailed("one tag and relevance per component expected")
        if not np.all((result.relevance >= 0.0) & (result.relevance <= 0.5)):
            raise CheckFailed("relevance outside [0, 0.5]")
        if not np.all(np.isfinite(result.weights)) or np.any(result.weights <= 0.0):
            raise CheckFailed("cross-modal weights are not positive and finite")
        tags = [tag.value for tag in result.tags]
        record = {
            "solvers": [report_record("select_model", report, SWEEP_BUDGET)],
            "tags": tags,
            "detected": bool(detected),
        }
        return Outcome(
            digest(model_digest(result.model), tags, report.iterations, bool(detected)),
            component_sweeps(report.kplus_history),
            record,
        )

    def summarize(self, outcomes):
        detect = _mean(o.record["detected"] for o in outcomes)
        return {"detect_frac": (detect, "frac"), "quality_score": (detect, "frac")}


class FitD8(Workload):
    """Fixed-K fitting of an 8-D, 6-component full-covariance mixture.

    Per mixture: kernel weights, k-means, moment matching, random- and
    fixed-weight EM to ``rel_tol=1e-6``, then the outlier-score report.
    """

    name = "fit_d8"
    unit = "pass"
    K = 6
    D = 8
    CONTAMINATION = 0.3
    MAX_ITER = 400
    PROFILE_SEED = 8

    def __init__(self, n: int = 20_000, mixtures: int = 5):
        self.n = n
        self.mixtures = mixtures

    def seeds(self, seed):
        return {"mixtures": [seed * 100 + j for j in range(self.mixtures)], "kmeans": seed}

    def build(self, seed):
        s = self.seeds(seed)
        return {"seed": s["kmeans"], "data": [self._mixture(m) for m in s["mixtures"]]}

    def _mixture(self, seed):
        # One fixed, well-separated mixture, like the shipped 2-D profiles, so
        # that the work per pass depends little on the seed, which draws the
        # sample and the contamination.
        shape = np.random.default_rng(self.PROFILE_SEED)
        means = 10.0 * np.eye(self.D)[: self.K]
        factors = shape.normal(size=(self.K, self.D, self.D)) * 0.6
        covs = factors @ factors.transpose(0, 2, 1) + 0.25 * np.eye(self.D)
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(self.n, np.full(self.K, 1.0 / self.K))
        blocks = [
            rng.multivariate_normal(mean, cov, size=count, method="cholesky")
            for mean, cov, count in zip(means, covs, counts)
        ]
        labels = np.repeat(np.arange(self.K), counts)
        order = rng.permutation(self.n)
        clean = wdmix.validate_dataset(
            np.vstack(blocks)[order], labels=labels[order], outlier_flag=np.zeros(self.n, bool)
        )
        return wdmix.contaminate_uniform(clean, self.CONTAMINATION, seed=seed)

    def input_digest(self, inputs):
        return digest(inputs["seed"], *[dataset_digest(d) for d in inputs["data"]])

    def warm_up(self, inputs):
        data = inputs["data"][0]
        small = wdmix.validate_dataset(data.points[:2000], outlier_flag=data.outlier_flag[:2000])
        self._pipeline(small, inputs["seed"], restarts=1, max_iter=2)

    def ops(self, inputs):
        return [
            Op(
                f"mixture{j}",
                functools.partial(self._pipeline, data, inputs["seed"]),
                self._check,
            )
            for j, data in enumerate(inputs["data"])
        ]

    def _pipeline(self, data, seed, restarts=10, max_iter=MAX_ITER):
        weights = wdmix.knn_kernel_weights(data)
        labels, _ = wdmix.kmeans(data, self.K, restarts=restarts, seed=seed)
        initial = wdmix.model_from_labels(data, labels)
        config = wdmix.FitConfig(max_iter=max_iter, rel_tol=1e-6)
        fit_wd = wdmix.em_weighted.fit(data, initial, wdmix.pipeline_gamma_priors(weights), config)
        fit_fwd = wdmix.em_fixed.fit(data, initial, weights, config)
        score = wdmix.outlier_score_report(fit_wd.final_weights, data.outlier_flag)
        return fit_wd, fit_fwd, score

    def _check(self, output):
        fit_wd, fit_fwd, score = output
        for report in (fit_wd, fit_fwd):
            check_report(report, self.K)
            check_em_ascent(report)
        if score.auc is None or not 0.0 <= score.auc <= 1.0:
            raise CheckFailed(f"outlier AUC {score.auc!r} is not in [0, 1]")
        record = {
            "solvers": [
                report_record("em_weighted.fit", fit_wd, self.MAX_ITER),
                report_record("em_fixed.fit", fit_fwd, self.MAX_ITER),
            ],
            "auc": score.auc,
        }
        return Outcome(
            digest(
                model_digest(fit_wd.final_model),
                model_digest(fit_fwd.final_model),
                fit_wd.final_weights.marginal_mean,
                fit_wd.iterations,
                fit_fwd.iterations,
                score.auc,
            ),
            1,
            record,
        )

    def summarize(self, outcomes):
        auc = _mean(o.record["auc"] for o in outcomes)
        return {"auc_mean": (auc, "frac"), "quality_score": (auc, "frac")}


class CliChain(Workload):
    """generate -> fit -> select -> evaluate through ``wdmix.cli.main``.

    Chains for three consecutive seeds; each runs into two directories and
    every artifact must match byte for byte.  The package is not installed,
    so the CLI is driven in-process.  Data come from the 'easy' profile: on 'overlapped' the selection took
    45 to 343 sweeps depending on the seed, so the chain time measured the
    seed more than the code.
    """

    name = "cli_chain"
    unit = "chain"
    ARTIFACTS = (
        "data.csv",
        "fit.model.json",
        "fit.report.json",
        "fit.assignments.csv",
        "sel.model.json",
        "sel.report.json",
        "sel.assignments.csv",
        "metrics.json",
        "plot.svg",
    )
    FIT_BUDGET = 400

    def __init__(self, out_dir, n: int = 5000, k: int = 5, k_high: int = 8, chains: int = 3):
        self.out_dir = Path(out_dir)
        self.n = n
        self.k = k
        self.k_high = k_high
        self.chains = chains

    def seeds(self, seed):
        return {"cli": list(range(seed, seed + self.chains))}

    def build(self, seed):
        return self.seeds(seed)["cli"]

    def input_digest(self, inputs):
        return digest([self.chain_argv(Path("."), s) for s in inputs])

    def chain_argv(self, d: Path, seed: int, n=None, k=None, k_high=None) -> list:
        s = str(seed)
        return [
            ["generate", "--profile", "easy", "--n", str(n or self.n),
             "--outlier-fraction", "0.3", "--seed", s, "--out", str(d / "data.csv")],
            ["fit", "--input", str(d / "data.csv"), "--algorithm", "wd", "--k", str(k or self.k),
             "--tol", "1e-6", "--seed", s, "--out", str(d / "fit")],
            ["select", "--input", str(d / "data.csv"), "--k-high", str(k_high or self.k_high),
             "--seed", s, "--out", str(d / "sel")],
            ["evaluate", "--model", str(d / "sel.model.json"),
             "--assignments", str(d / "sel.assignments.csv"), "--truth", str(d / "data.csv"),
             "--report", str(d / "sel.report.json"), "--metrics", "db,f1,outliers",
             "--plot", str(d / "plot.svg"), "--out", str(d / "metrics.json")],
        ]

    def warm_up(self, inputs):
        d = self.out_dir / "warmup"
        self._chain(self.chain_argv(d, inputs[0], n=150, k=2, k_high=3), d)

    def ops(self, inputs):
        ops = []
        for i, seed in enumerate(inputs):
            for copy in "ab":
                d = self.out_dir / f"{i}{copy}"
                ops.append(
                    Op(
                        f"chain{seed}{copy}",
                        functools.partial(self._chain, self.chain_argv(d, seed), d),
                        functools.partial(self._check, d),
                        key=f"chain{seed}",
                    )
                )
        return ops

    @staticmethod
    def _chain(argvs, d: Path):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        for argv in argvs:
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"wdmix {argv[0]} exited with {code}")
        return d

    def _check(self, d, _):
        blobs = {name: (d / name).read_bytes() for name in self.ARTIFACTS}
        fit = json.loads(blobs["fit.report.json"])
        sel = json.loads(blobs["sel.report.json"])
        metrics = json.loads(blobs["metrics.json"])
        auc = metrics["outliers"]["auc"]
        numbers = [auc, metrics["micro_f1"], metrics["db_all"], sel["best_length"]]
        numbers += fit["objective_trace"] + sel["weight_means"]
        if not all(isinstance(v, float) and np.isfinite(v) for v in numbers):
            raise CheckFailed("CLI metrics or reports hold non-finite values")
        if not blobs["plot.svg"].startswith(b"<svg") or not blobs["plot.svg"].rstrip().endswith(b"</svg>"):
            raise CheckFailed("plot is not a complete SVG document")
        fit_k = len(json.loads(blobs["fit.model.json"])["components"])
        record = {
            "solvers": [
                solver_record("cli.fit", fit["converged"], fit["iterations"], self.FIT_BUDGET, fit_k),
                solver_record(
                    "cli.select", sel["converged"], sel["iterations"], SWEEP_BUDGET, sel["selected_k"]
                ),
            ],
            "auc": auc,
            "micro_f1": metrics["micro_f1"],
        }
        artifact_bytes = sum(len(b) for b in blobs.values())
        return Outcome(
            digest(*[(name, blobs[name]) for name in self.ARTIFACTS]),
            1,
            record,
            {"cli.artifact_bytes": artifact_bytes},
        )

    def summarize(self, outcomes):
        auc = _mean(o.record["auc"] for o in outcomes)
        return {"auc_mean": (auc, "frac"), "quality_score": (auc, "frac")}


def _mean(values) -> float | None:
    values = [float(v) for v in values]
    return sum(values) / len(values) if values else None


def make(name: str, out_dir) -> Workload:
    """The workload called ``name``, writing any files under ``out_dir``."""
    workloads = {
        "select_easy600": SelectEasy600,
        "av_scenes": AvScenes,
        "fit_d8": FitD8,
        "cli_chain": functools.partial(CliChain, Path(out_dir) / "cli_chain"),
    }
    return workloads[name]()


WORKLOAD_NAMES = ("select_easy600", "av_scenes", "fit_d8", "cli_chain")
