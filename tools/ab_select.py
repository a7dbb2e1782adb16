#!/usr/bin/env python3
"""In-process A/B timing of the selection search: the last commit against the working tree.

    python3 tools/ab_select.py --rounds 10 --seed 41

``src/wdmix`` of ``--base`` (default ``HEAD``) is exported with ``git
archive`` into a temporary directory and imported as the package
``wdmix_base``, next to the working tree's ``wdmix``.  Each round runs the
selections of two benchmark workloads, each selection on both packages back
to back, the first side alternating from one selection to the next:

- ``select_easy600``: the nine selections of one seed (easy profile, 600
  inliers, 0/30/50% uniform contamination, wd/fwd/gmm modes, ``k_high=15``);
- ``av_scenes``: ``analyze_segment`` on eight two-speaker scenes, timing
  the ``select_model`` call inside it.

Only ``select_model`` is timed, and its time is divided by the component
updates it ran (the sum of K+ over its sweeps), as the benchmark's
``unit_ms`` is.  Both sides run in one process, in slices of one selection,
so host load that drifts over seconds lands on both.  Every report float (objective
trace, checkpoint lengths, model, responsibilities, weights, annihilation
log) must be equal on both sides; the tool exits 1 if one differs.  Per
workload it prints each side's median and quartiles of the per-round time
per update, and the rounds the working tree won.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("select_easy600", "av_scenes")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--base", default="HEAD", help="revision to compare the working tree with")
    return parser.parse_args(argv)


def import_sides(base_rev: str, workdir: Path) -> dict:
    """The working tree's ``wdmix`` and ``base_rev``'s, imported as ``wdmix_base``."""
    archive = subprocess.run(
        ["git", "archive", base_rev, "src/wdmix"], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(workdir)], input=archive, check=True)
    (workdir / "src" / "wdmix").rename(workdir / "wdmix_base")
    sys.path[:0] = [str(ROOT / "src"), str(workdir)]
    return {"base": importlib.import_module("wdmix_base"), "head": importlib.import_module("wdmix")}


def report_digest(report) -> str:
    """SHA-256 over every float a selection report holds."""
    h = hashlib.sha256()
    model = report.final_model
    weights = report.final_weights
    parts = [report.objective_trace, report.checkpoint_lengths, [report.best_length], model.proportions]
    parts += [comp.mean for comp in model.components] + [comp.covariance for comp in model.components]
    parts.append(report.final_responsibilities.matrix)
    parts += [getattr(weights, name) for name in ("fixed_w", "prior_alpha", "prior_beta", "post_a", "post_b",
                                                   "marginal_mean")]
    parts.append([event.proportion for event in report.annihilation_log])
    for part in parts:
        if part is not None:
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    return h.hexdigest()


def easy600_ops(pkg, seed: int) -> list:
    """The nine selections of one seed; each call returns (seconds, updates, digest, report)."""
    base = pkg.generate_sim("easy", 600, seed=seed)
    ops = []
    for frac in (0.0, 0.3, 0.5):
        data = pkg.contaminate_uniform(base, frac, seed=seed + 1)
        for mode in ("wd", "fwd", "gmm"):
            if mode == "wd":
                config, weights = pkg.MmlConfig(k_high=15), None
            else:
                config = pkg.MmlConfig(k_high=15, weight_mode=pkg.WeightMode.FIXED)
                weights = pkg.knn_kernel_weights(data) if mode == "fwd" else np.ones(data.n)
            ops.append(functools.partial(_timed, pkg.select_model, data, config, weights=weights, seed=seed))
    return ops


def _timed(select_model, *args, **kwargs) -> tuple:
    start = time.perf_counter()
    report = select_model(*args, **kwargs)
    return time.perf_counter() - start, sum(report.kplus_history), report_digest(report), report


def two_speaker_scene(pkg, seed: int):
    """The benchmark's scene: speaker A at (-60, 0) heard and seen, B at (60, 0) only seen."""
    gen = np.random.default_rng(seed)
    audio = gen.normal([-60.0, 0.0], 10.0, size=(50, 2))
    visual_a = gen.normal([-60.0, 0.0], 10.0, size=(30, 2))
    visual_b = gen.normal([60.0, 0.0], 10.0, size=(40, 2))
    points = np.vstack([audio, visual_a, visual_b])
    tags = np.array(["a"] * 50 + ["v"] * 70)
    order = gen.permutation(120)
    return pkg.validate_dataset(points[order], modality=tags[order])


def av_ops(pkg, seed: int) -> list:
    """``analyze_segment`` on eight scenes; each call returns its selection's (seconds, updates, digest)."""
    return [functools.partial(_timed_segment, pkg, two_speaker_scene(pkg, s), s) for s in range(seed, seed + 8)]


def _timed_segment(pkg, scene, seed: int) -> tuple:
    """The segment's ``select_model`` call is timed through a tap on the name ``av_fusion`` calls."""
    av_fusion = importlib.import_module(pkg.__name__ + ".av_fusion")
    installed = av_fusion.select_model
    out = []

    def tap(*args, **kwargs):
        out.append(_timed(installed, *args, **kwargs))
        return out[-1][3]

    av_fusion.select_model = tap
    try:
        pkg.analyze_segment(scene, pkg.AvConfig(seed=seed))
    finally:
        av_fusion.select_model = installed
    return out[0][:3]


OPS = {"select_easy600": easy600_ops, "av_scenes": av_ops}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(base: list, head: list) -> dict:
    """Quartiles of both sides' per-round times, the head's relative median gap and its wins."""
    b, h = quartiles(base), quartiles(head)
    return {
        "base": b,
        "head": h,
        "median_gap_rel": (h["median"] - b["median"]) / b["median"],
        "head_wins": sum(y < x for x, y in zip(base, head)),
        "rounds": len(base),
    }


def format_line(workload: str, s: dict) -> str:
    b, h = s["base"], s["head"]
    return (
        f"{workload}: ms/update base {b['median']:.4f} [{b['q1']:.4f}-{b['q3']:.4f}] "
        f"head {h['median']:.4f} [{h['q1']:.4f}-{h['q3']:.4f}] "
        f"{100.0 * s['median_gap_rel']:+.1f}%, head faster in {s['head_wins']}/{s['rounds']} rounds"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab_select-") as workdir:
        sides = import_sides(args.base, Path(workdir))
        ops = {w: {name: OPS[w](pkg, args.seed) for name, pkg in sides.items()} for w in WORKLOADS}
        times = {w: {"base": [], "head": []} for w in WORKLOADS}
        differ = set()
        for r in range(args.rounds):
            for workload in WORKLOADS:
                totals = {"base": [0.0, 0], "head": [0.0, 0]}
                for i in range(len(ops[workload]["base"])):
                    digests = set()
                    for name in ("base", "head") if (r + i) % 2 == 0 else ("head", "base"):
                        seconds, updates, digest = ops[workload][name][i]()[:3]
                        totals[name][0] += seconds
                        totals[name][1] += updates
                        digests.add(digest)
                    if len(digests) > 1:
                        differ.add(workload)
                for name, (seconds, updates) in totals.items():
                    times[workload][name].append(1e3 * seconds / updates)
            print(f"round {r}: " + "; ".join(
                f"{w} base {times[w]['base'][-1]:.4f} head {times[w]['head'][-1]:.4f} ms/update" for w in WORKLOADS
            ), flush=True)
    for workload in WORKLOADS:
        print(format_line(workload, summarize(times[workload]["base"], times[workload]["head"])))
    if differ:
        print(f"report floats differ between the sides on: {', '.join(sorted(differ))}")
        return 1
    print("every report float is equal on both sides")
    return 0


if __name__ == "__main__":
    sys.exit(main())
