#!/usr/bin/env python3
"""wdmix benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads (see ``workloads.py``; why each was chosen is in
``BENCHMARK.json``): select_easy600, av_scenes, fit_d8, cli_chain.  A run is
one process and its ops run one after another.

Untraced (``--trace 0``): set up (import, inputs from the seed, one small
warm-up op) in this process and twice more in fresh processes, run every op
of the workload's fixed batch once, then keep cycling through the batch
while the next op, timed as on its last run, ends within ``--seconds``.
Every output is checked; repeated ops must give identical outputs.  The last
line carries the end-to-end metrics that ``BENCHMARK.json`` gates:

  setup_s        median of the three set-ups
  unit_ms        time per unit of work over the whole timed run: the time
                 of every op run, over the units of work they ran.  The unit
                 is a component update in a selection sweep (select_easy600,
                 av_scenes: the sum of K+ over sweeps), a fit pass (fit_d8)
                 or a CLI chain (cli_chain).  Selection work per seed varies
                 widely (some av_scenes scenes stop at the 2000-sweep
                 budget), so time per unit is what stays steady; the work
                 itself is reported as counts, and wall_s in the report.
                 Total time over total work, not the median op's rate: the
                 median jumps when the seed moves one op across the middle.
  peak_rss_mb    peak resident set size of this process
  quality_score  wd micro-F1 on inliers (select_easy600), speaker detection
                 rate (av_scenes), outlier AUC (fit_d8, cli_chain)

The report adds wall_s (batch time: sum of per-op medians), op_p50_s with op_samples, fail_frac,
converged_frac, budget_exhausted, the workload's named quality metrics
(k_recovered_frac, db_win_frac, auc_mean, detect_frac), per-op records
(every timed run, iterations, selected K, stop cause) and the environment.

Traced (``--trace 1``): run each op of the batch once untraced and once with
every layer boundary traced (see ``tracing.py``), check that both give
identical outputs, and report per-layer self times and counts plus the tracing
overhead.  Spans are written to ``perfbench/out/spans-<workload>.jsonl``.

The line before last on stdout is the full run report, also written to
``perfbench/out/``; the last line is ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description="wdmix benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and exit")
    return parser.parse_args(argv)


def import_library():
    """Import wdmix from this checkout's src/ (never an installed copy)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import wdmix

    if Path(wdmix.__file__).resolve().parent != (src / "wdmix").resolve():
        raise ImportError(f"wdmix imported from {wdmix.__file__}, not from {src}")
    import workloads

    return workloads


def set_up(args):
    """Import, build the inputs and warm up; return (workload, inputs, seconds)."""
    start = time.perf_counter()
    workloads = import_library()
    if args.workload not in workloads.WORKLOAD_NAMES:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOAD_NAMES}")
    workload = workloads.make(args.workload, OUT_DIR)
    inputs = workload.build(args.seed)
    workload.warm_up(inputs)
    return workload, inputs, time.perf_counter() - start


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# running ops


class Runs:
    """Times, checked outcomes and failures of the ops run so far."""

    def __init__(self):
        self.times: dict = {}
        self.outcomes: dict = {}  # op name -> first Outcome
        self.expected: dict = {}  # op.same_as -> first digest
        self.failures: list = []
        self.attempted = 0

    def run(self, op, tracer=None) -> None:
        self.attempted += 1
        if tracer is not None:
            tracer.begin_op(op.name)
        start = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # a failing op is counted, not fatal
            self.failures.append({"op": op.name, "error": f"{type(exc).__name__}: {exc}"})
            return
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
        try:
            outcome = op.check(output)
        except Exception as exc:
            self.failures.append({"op": op.name, "error": f"{type(exc).__name__}: {exc}"})
            return
        expected = self.expected.setdefault(op.same_as, outcome.digest)
        if outcome.digest != expected:
            self.failures.append({"op": op.name, "error": f"output differs from the first {op.same_as!r}"})
            return
        self.times.setdefault(op.name, []).append(elapsed)
        self.outcomes.setdefault(op.name, outcome)

    def batch_seconds(self, ops) -> float:
        """Sum over the batch of each op's median time."""
        return sum(statistics.median(self.times[op.name]) for op in ops if op.name in self.times)


def run_for(ops, seconds: float) -> Runs:
    """Every op once, then cycle through the batch while the next op, timed
    as on its last run, ends within ``seconds``."""
    runs = Runs()
    start = time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        if i >= len(ops):
            last = runs.times.get(op.name, [0.0])[-1]
            if time.perf_counter() - start + last > seconds:
                return runs
        runs.run(op)
        i += 1


def op_records(ops, runs: Runs) -> list:
    records = []
    for op in ops:
        if op.name in runs.outcomes:
            times = runs.times[op.name]
            records.append({"op": op.name, "median_s": statistics.median(times), "times_s": times,
                            "units": runs.outcomes[op.name].units, **runs.outcomes[op.name].record})
    return records


def converged_frac(outcomes) -> float | None:
    """Ops whose every solver stopped on tolerance."""
    flags = [all(s["stop"] == "tolerance" for s in o.record["solvers"]) for o in outcomes]
    return sum(flags) / len(flags) if flags else None


def end_to_end(workload, ops, runs: Runs, setup_s: float) -> dict:
    done = [op for op in ops if op.name in runs.outcomes]
    outcomes = [runs.outcomes[op.name] for op in done]
    samples = [t for times in runs.times.values() for t in times]
    units = sum(runs.outcomes[op.name].units * len(runs.times[op.name]) for op in done)
    metrics = {
        "setup_s": (setup_s, "s"),
        "unit_ms": (1000.0 * sum(samples) / units if units else None, "ms"),
        "wall_s": (runs.batch_seconds(ops), "s"),
        "op_p50_s": (statistics.median(samples) if samples else None, "s"),
        "op_samples": (len(samples), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_frac": (len(runs.failures) / runs.attempted, "frac"),
        "converged_frac": (converged_frac(outcomes), "frac"),
        "budget_exhausted": (
            sum(s["stop"] == "budget" for o in outcomes for s in o.record["solvers"]), "count"),
    }
    metrics.update(workload.summarize(outcomes))
    return metrics


# ---------------------------------------------------------------------------
# environment


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> list:
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes

    found = []
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return found
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append({"library": Path(path).name, "threads": fn()})
                break
    return found


def environment(workload, seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "blas_threads": blas_threads(),
        "env": {k: os.environ.get(k) for k in
                ("WDMIX_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "input_seeds": workload.seeds(seed),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------


def traced_run(workload, inputs, ops, seed: int):
    """The set-up traced, then each op untraced and straight after traced.

    Running the two copies of an op back to back keeps slow drifts of the
    machine's speed out of the overhead estimate.  Returns the untraced runs
    (with the traced pass's attempts and failures added, plus one failure
    per output that tracing changed), the per-layer metrics and the tracer.
    """
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.begin_op("setup")
        rebuilt = workload.build(seed)
        tracer.end_op()
    untraced, traced = Runs(), Runs()
    for op in ops:
        untraced.run(op)
        with tracer.installed():
            traced.run(op, tracer)
    untraced.attempted += traced.attempted
    untraced.failures += traced.failures
    for name, outcome in traced.outcomes.items():
        if name in untraced.outcomes and untraced.outcomes[name].digest != outcome.digest:
            untraced.failures.append({"op": name, "error": "traced output differs from untraced"})
    if workload.input_digest(rebuilt) != workload.input_digest(inputs):
        untraced.failures.append({"op": "setup", "error": "inputs rebuilt from the seed differ"})
    counters: Counter = Counter()
    for outcome in traced.outcomes.values():
        counters.update(outcome.counters)
    overhead = traced.batch_seconds(ops) / untraced.batch_seconds(ops) - 1.0
    return untraced, tracer.per_layer_metrics(counters, overhead), tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workload, inputs, setup_s = set_up(args)
    except ImportError as exc:
        print(f"error: cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    ops = workload.ops(inputs)
    report = {"benchmark": "wdmix", "workload": workload.name, "unit": workload.unit,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace == 0:
        setup_samples = [setup_s] + [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
        runs = run_for(ops, args.seconds)
        metrics = end_to_end(workload, ops, runs, statistics.median(setup_samples))
        report["setup_samples_s"] = setup_samples
        listed = "end_to_end"
    else:
        runs, metrics, tracer = traced_run(workload, inputs, ops, args.seed)
        tracer.write_spans(OUT_DIR / f"spans-{workload.name}.jsonl")
        report["traced_spans"] = len(tracer.spans)
        listed = "per_layer"
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[listed]]
    correct = not runs.failures

    report["environment"] = environment(workload, args.seed)
    report["correct"] = correct
    report["failures"] = runs.failures
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["ops"] = op_records(ops, runs)
    text = json.dumps(report)
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps({
        "correct": correct,
        "attempted": runs.attempted,
        "failed": len(runs.failures),
        "metrics": {k: report["metrics"][k] for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
