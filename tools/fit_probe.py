#!/usr/bin/env python3
"""Traced memory and fit quality of each ``fit_d8`` benchmark pass.

    python3 tools/fit_probe.py --checkout . --seeds 41 59 7

Imports ``wdmix`` from ``CHECKOUT/src`` and the ``fit_d8`` workload from
``CHECKOUT/perfbench/workloads.py``, rebuilds the workload's mixtures for
each seed, runs its warm-up, and then runs its fit pass once on each
mixture under ``tracemalloc``.  Each phase the pass calls by attribute (the
kNN kernel weights, k-means, moment matching, both EM fits and the outlier
report) is wrapped.  One JSON line per mixture records

- per phase, the traced bytes held at its start above the pass start
  (``held``), the traced peak above the phase's start (``transient``) and
  what the phase left allocated (``kept``), plus the peak of the whole pass
  above its start (``pass_peak``);
- the full-data k-means inertia (the squared distance of every point to its
  assigned center, summed here, not by the library), both EM fits'
  iteration counts and final objectives, and the outlier AUC.

Run it on two checkouts to see which phase a change moved and what it did
to the fits.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import tracemalloc
from pathlib import Path

# Phase name -> (wdmix submodule or "" for wdmix itself, attribute) that the pass calls.
PHASES = {
    "knn": ("", "knn_kernel_weights"),
    "kmeans": ("", "kmeans"),
    "model_from_labels": ("", "model_from_labels"),
    "em_weighted.fit": ("em_weighted", "fit"),
    "em_fixed.fit": ("em_fixed", "fit"),
    "outlier_score_report": ("", "outlier_score_report"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    return parser.parse_args(argv)


class PhaseTracer:
    """Wraps the pass's phases; records their traced bytes relative to the pass start, and their results."""

    def __init__(self):
        self.pass_start = 0
        self.phases = {}
        self.results = {}

    def wrap(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                result = func(*args, **kwargs)
            finally:
                current, peak = tracemalloc.get_traced_memory()
                self.phases[name] = {
                    "held": start - self.pass_start,
                    "transient": peak - start,
                    "kept": current - start,
                }
            self.results[name] = result
            return result

        return wrapper

    def run(self, pass_fn):
        """Trace one pass; returns its result and its peak traced bytes above the pass start."""
        self.phases = {}
        self.results = {}
        tracemalloc.start()
        self.pass_start = tracemalloc.get_traced_memory()[0]
        try:
            output = pass_fn()
        finally:
            tracemalloc.stop()
        # Every phase resets the peak, so the pass peak is the largest phase peak.
        return output, max(p["held"] + p["transient"] for p in self.phases.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    import numpy as np

    import wdmix
    from perfbench.workloads import FitD8

    workload = FitD8()
    tracer = PhaseTracer()
    # The workload's pass calls each phase by attribute; wrap those.  Untraced
    # calls (the warm-up) record zeros, which the next traced pass discards.
    for name, (module, attribute) in PHASES.items():
        owner = getattr(wdmix, module) if module else wdmix
        setattr(owner, attribute, tracer.wrap(name, getattr(owner, attribute)))
    for seed in args.seeds:
        inputs = workload.build(seed)
        workload.warm_up(inputs)
        for j, data in enumerate(inputs["data"]):
            (fit_wd, fit_fwd, score), peak = tracer.run(functools.partial(workload._pipeline, data, inputs["seed"]))
            labels, centers = tracer.results["kmeans"]
            print(json.dumps({
                "seed": seed,
                "mixture": j,
                "n": data.n,
                "pass_peak": peak,
                "phases": tracer.phases,
                "kmeans_inertia": float(np.sum((data.points - centers[labels]) ** 2)),
                "em_weighted": {"iterations": fit_wd.iterations, "objective": fit_wd.objective_trace[-1]},
                "em_fixed": {"iterations": fit_fwd.iterations, "objective": fit_fwd.objective_trace[-1]},
                "auc": score.auc,
            }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
