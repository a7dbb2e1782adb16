#!/usr/bin/env python3
"""In-process A/B timing of every benchmark workload: a commit against the working tree.

    python3 tools/ab_inprocess.py --rounds 10 --seed 41

``--base`` (default ``HEAD``) is exported into a temporary directory by
``tools/bench_pairs.py``'s ``export``, and its ``src/wdmix`` is imported as
the package ``wdmix_base``, next to the working tree's ``wdmix``.  The
working tree's ``perfbench/workloads.py`` is loaded once per side, with
``wdmix`` bound to that side's package, so both sides run the same workload
code.  For every workload of ``BENCHMARK.json`` each side builds its inputs
from ``--seed`` and runs the workload's warm-up.

Each round runs every op of every workload on both sides back to back, the
first side alternating from one op to the next, so host load that drifts
over seconds lands on both.  Only ``op.run()`` is timed; ``op.check``
supplies the units of work, so a round's figure is the benchmark's
``unit_ms``: the time of its ops over the units they ran.  Per workload the
rounds are scored by ``tools/bench_pairs.py``'s paired-runs rule, each
round one pair; the JSON line carries that score, the per-round ratio
median and spread included.  Both sides must agree on every op's ``Outcome.digest`` and
on every float the op returned; the tool exits 1 if one differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import bench_pairs

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
PACKAGES = {"base": "wdmix_base", "head": "wdmix"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--base", default="HEAD", help="revision to compare the working tree with")
    return parser.parse_args(argv)


def load_workloads(package: str, name: str):
    """The working tree's ``perfbench/workloads.py`` as module ``name``, run with ``wdmix`` bound to ``package``."""
    pkg = importlib.import_module(package)
    # ``from wdmix import cli`` takes a submodule from the package's attributes
    # only once it is imported; else it would import the working tree's.
    for sub in ("cli", "av_fusion", "model_selection"):
        importlib.import_module(f"{package}.{sub}")
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.modules.get("wdmix")
    sys.modules["wdmix"] = pkg
    sys.modules[name] = module  # @dataclass looks its module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
        if saved is None:
            del sys.modules["wdmix"]
        else:
            sys.modules["wdmix"] = saved
    return module


def float_digest(value) -> str:
    """SHA-256 over every float reachable from ``value`` through float
    arrays, lists, tuples, dicts and dataclass attributes (by name)."""
    h = hashlib.sha256()

    def walk(v):
        if isinstance(v, (float, np.floating)):
            h.update(np.float64(v).tobytes())
        elif isinstance(v, np.ndarray) and v.dtype.kind in "fc":
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, (list, tuple)):
            for item in v:
                walk(item)
        elif isinstance(v, dict):
            for item in v.values():
                walk(item)
        elif dataclasses.is_dataclass(v) and not isinstance(v, type):
            for _, item in sorted(vars(v).items()):
                walk(item)

    walk(value)
    return h.hexdigest()


def prepare(module, workload: str, seed: int, out_dir: Path) -> list:
    """The ops of ``workload`` on one side, after its warm-up."""
    w = module.make(workload, out_dir)
    inputs = w.build(seed)
    w.warm_up(inputs)
    return w.ops(inputs)


def run_op(op) -> tuple:
    """(seconds of ``op.run()``, units, (outcome digest, float digest))."""
    start = time.perf_counter()
    output = op.run()
    seconds = time.perf_counter() - start
    outcome = op.check(output)
    return seconds, outcome.units, (outcome.digest, float_digest(output))


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "unit_ms")
    with tempfile.TemporaryDirectory(prefix="ab_inprocess-") as tmp:
        workdir = Path(tmp)
        bench_pairs.export(args.base, workdir / "export")
        (workdir / "export" / "src" / "wdmix").rename(workdir / PACKAGES["base"])
        sys.path[:0] = [str(ROOT / "src"), str(workdir)]
        modules = {side: load_workloads(PACKAGES[side], f"workloads_{side}") for side in SIDES}
        ops = {w: {side: prepare(modules[side], w, args.seed, workdir / side) for side in SIDES} for w in workloads}
        times = {w: {side: [] for side in SIDES} for w in workloads}
        differ = set()
        for r in range(args.rounds):
            for w in workloads:
                totals = {side: [0.0, 0] for side in SIDES}
                for i in range(len(ops[w]["base"])):
                    digests = {}
                    for side in SIDES if (r + i) % 2 == 0 else SIDES[::-1]:
                        seconds, units, digests[side] = run_op(ops[w][side][i])
                        totals[side][0] += seconds
                        totals[side][1] += units
                    if digests["base"] != digests["head"]:
                        differ.add(f"{w} {ops[w]['head'][i].name}")
                for side, (seconds, units) in totals.items():
                    times[w][side].append(1e3 * seconds / units)
            print(f"round {r}: " + "; ".join(
                f"{w} base {times[w]['base'][-1]:.4f} head {times[w]['head'][-1]:.4f}" for w in workloads
            ) + " ms/unit", flush=True)
    results = {w: {"unit_ms": bench_pairs.score(times[w]["base"], times[w]["head"], "lower", bound)}
               for w in workloads}
    for w, metrics in results.items():
        print(bench_pairs.summary_line(w, metrics))
    print(json.dumps(results))
    if differ:
        print(f"outputs differ between the sides on: {', '.join(sorted(differ))}")
        return 1
    print("every op digest and output float is equal on both sides")
    return 0


if __name__ == "__main__":
    sys.exit(main())
