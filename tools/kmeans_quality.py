#!/usr/bin/env python3
"""k-means and downstream fit quality on the ``fit_d8`` benchmark mixtures.

    python3 tools/kmeans_quality.py --checkout . --seeds 41 59 7

Imports ``wdmix`` from ``CHECKOUT/src`` and the ``fit_d8`` workload from
``CHECKOUT/perfbench/workloads.py``, rebuilds the workload's mixtures for
each seed and runs its fit pass on each.  One JSON line per mixture: the
full-data k-means inertia (the squared distance of every point to its
assigned center, summed here, not by the library), both EM fits' iteration
counts and final objectives, and the outlier AUC.  Run it on two checkouts
to compare a change to the initialisation with its parent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    import numpy as np

    import wdmix
    from perfbench.workloads import FitD8

    kmeans = wdmix.kmeans
    found = []

    def recording_kmeans(*call_args, **kwargs):
        found.append(kmeans(*call_args, **kwargs))
        return found[-1]

    # The workload's pass calls wdmix.kmeans by attribute; record its result.
    wdmix.kmeans = recording_kmeans
    workload = FitD8()
    for seed in args.seeds:
        inputs = workload.build(seed)
        for j, data in enumerate(inputs["data"]):
            fit_wd, fit_fwd, score = workload._pipeline(data, inputs["seed"])
            labels, centers = found.pop()
            inertia = float(np.sum((data.points - centers[labels]) ** 2))
            print(json.dumps({
                "seed": seed,
                "mixture": j,
                "n": data.n,
                "kmeans_inertia": inertia,
                "em_weighted": {"iterations": fit_wd.iterations, "objective": fit_wd.objective_trace[-1]},
                "em_fixed": {"iterations": fit_fwd.iterations, "objective": fit_fwd.objective_trace[-1]},
                "auc": score.auc,
            }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
