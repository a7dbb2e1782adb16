#!/usr/bin/env python3
"""Paired benchmark runs of the last commit against the working tree.

    python3 tools/bench_pairs.py --pr 9 --pairs 10 --seeds 41 59

Both sides are exported with ``git archive`` into a temporary directory:
the base is ``HEAD``, the head is the working tree (tracked and untracked
files that ``.gitignore`` does not exclude, staged into a temporary index
so the real one is left alone).  For every workload of the head's
``BENCHMARK.json``, pair i runs

    python3 perfbench/run.py --workload W --seed S --seconds 25

once on each side, in ABBA order (base first on even pairs, head first on
odd ones), with seed S cycling through ``--seeds``.  The runs are
pair-major: pair i runs every workload before pair i + 1 starts, so each
workload's pairs spread over the whole run.  The last line of every run
is read.  ``BENCH_<pr>.json``, written to the repository root, records per
workload and gated metric (the ``end_to_end`` list of the head's
``BENCHMARK.json``) each side's median, quartiles and every run's value,
and how many pairs the head won (ties win for neither side).  It also
records the seeds, both sides' commit and ``src/`` tree SHAs, their line
counts of ``src/wdmix/*.py``, ``nproc`` and the BLAS thread variables.

Each metric also carries the verdict of the paired-runs rule: the median
gap (head minus base, and relative to the base median), the base's
quartile spread, ``gain_rule_met`` (the head won at least nine tenths of
the pairs and its median is better than the base's by more than that
spread) and ``worse_than_bound`` (the head's median is worse than the
base's by more than the metric's relative bound).  Next to the base's
spread it reports the median and quartile spread of the per-pair head/base
ratios (``ratio_median``, ``ratio_spread``; null if a base run reads 0),
the noise that pairing leaves; the verdict does not use them.  One summary
line per workload is printed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SECONDS = 25


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="label of the change; names the output file")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    return parser.parse_args(argv)


def git(*args, env=None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=True
    ).stdout.strip()


def working_tree() -> str:
    """Tree SHA of the working tree, written through a temporary index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def export(tree_ish: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", tree_ish], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def describe_sides() -> dict:
    commit = git("rev-parse", "HEAD")
    tree = working_tree()
    return {
        "base": {"rev": "HEAD", "commit": commit, "dirty": False,
                 "src_tree": git("rev-parse", f"{commit}:src"), "tree_ish": commit},
        "head": {"rev": "working tree", "commit": commit, "dirty": True,
                 "src_tree": git("rev-parse", f"{tree}:src"), "tree_ish": tree},
    }


def src_lines(checkout: Path) -> int:
    """Lines of ``src/wdmix/*.py`` in one exported checkout, counted as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "wdmix").glob("*.py"))


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(base: dict, head: dict, wins: int, pairs: int, better: str, bound: float) -> dict:
    """The paired-runs rule applied to two :func:`summary` results."""
    gap = head["median"] - base["median"]
    improvement = -gap if better == "lower" else gap
    spread = base["q3"] - base["q1"]
    return {
        "median_gap": gap,
        "median_gap_rel": gap / base["median"] if base["median"] else None,
        "base_spread": spread,
        "gain_rule_met": 10 * wins >= 9 * pairs and improvement > spread,
        "worse_than_bound": -improvement > bound * abs(base["median"]),
    }


def summary_line(workload: str, metrics: dict) -> str:
    """One line per workload: each metric's relative median gap, wins and verdict flags."""
    parts = []
    for name, m in metrics.items():
        rel = m["median_gap_rel"]
        flags = ("GAIN " if m["gain_rule_met"] else "") + ("WORSE-THAN-BOUND " if m["worse_than_bound"] else "")
        gap = "n/a" if rel is None else f"{100.0 * rel:+.1f}%"
        parts.append(f"{name} {gap} wins {m['head_wins']} {flags}".rstrip())
    return f"{workload}: " + "; ".join(parts)


def pair_ratios(base_values: list[float], head_values: list[float]) -> dict:
    """Median and quartile spread of the per-pair head/base ratios; None if a base value is 0."""
    if not all(base_values):
        return {"ratio_median": None, "ratio_spread": None}
    ratios = summary([h / b for b, h in zip(base_values, head_values)])
    return {"ratio_median": ratios["median"], "ratio_spread": ratios["q3"] - ratios["q1"]}


def score(base_values: list[float], head_values: list[float], better: str, bound: float) -> dict:
    """One metric's paired values as both sides' :func:`summary`, the head's wins, the :func:`verdict`
    and the :func:`pair_ratios`."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (h - b) < 0 for b, h in zip(base_values, head_values))
    base, head = summary(base_values), summary(head_values)
    return {"base": base, "head": head, "head_wins": wins,
            **verdict(base, head, wins, len(base_values), better, bound),
            **pair_ratios(base_values, head_values)}


def run_pairs(checkouts: dict, pairs: int, seeds: list[int]) -> dict:
    spec = json.loads((checkouts["head"] / "BENCHMARK.json").read_text())
    runs = {w["name"]: {"base": [], "head": []} for w in spec["workloads"]}
    for i in range(pairs):
        seed = seeds[i % len(seeds)]
        for workload in runs:
            for name in ("base", "head") if i % 2 == 0 else ("head", "base"):
                line = run_once(checkouts[name], workload, seed)
                runs[workload][name].append(line)
                print(f"{workload} pair {i} seed {seed} {name}: "
                      + " ".join(f"{k}={v['value']}" for k, v in line["metrics"].items()), flush=True)
    results = {}
    for workload, sides in runs.items():
        metrics = {}
        for m in spec["end_to_end"]:
            base, head = ([r["metrics"][m["name"]]["value"] for r in sides[name]] for name in ("base", "head"))
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                                  **score(base, head, m["better"], m["bound"])}
        results[workload] = {
            "metrics": metrics,
            "attempted": {name: sum(r["attempted"] for r in sides[name]) for name in sides},
            "failed": {name: sum(r["failed"] for r in sides[name]) for name in sides},
            "correct": {name: all(r["correct"] for r in sides[name]) for name in sides},
        }
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = describe_sides()
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as workdir:
        checkouts = {}
        for name, side in sides.items():
            checkouts[name] = Path(workdir) / name
            export(side.pop("tree_ish"), checkouts[name])
            side["src_lines"] = src_lines(checkouts[name])
        results = run_pairs(checkouts, args.pairs, args.seeds)

    payload = {
        "pr": args.pr,
        "command": f"perfbench/run.py --workload W --seed S --seconds {SECONDS}",
        "order": "pair-major, every workload in each pair; ABBA: base first on even pairs, head first on odd ones",
        "pairs": args.pairs,
        "seeds": args.seeds,
        "base": sides["base"],
        "head": sides["head"],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workloads": results,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    for workload, result in results.items():
        print(summary_line(workload, result["metrics"]))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
