"""Self-tests of the benchmark harness, on small inputs.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import wdmix  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Small versions of each workload, with seeds whose ops finish quickly.
SMALL = {
    "select_easy600": (lambda tmp: workloads.SelectEasy600(n=150, k_high=4), 3),
    "av_scenes": (lambda tmp: workloads.AvScenes(scenes=2), 11),
    "fit_d8": (lambda tmp: workloads.FitD8(n=1500, mixtures=1), 3),
    "cli_chain": (lambda tmp: workloads.CliChain(tmp, n=200, k=2, k_high=3, chains=1), 3),
}


def small(name, tmp_path):
    make, seed = SMALL[name]
    return make(tmp_path), seed


def nan_model(model):
    comps = list(model.components)
    mean = comps[0].mean.copy()
    mean[0] = np.nan
    comps[0] = wdmix.GaussianComponent(mean, comps[0].covariance)
    return wdmix.MixtureModel(tuple(comps), model.proportions, model.covariance_shape)


def test_small_workloads_cover_every_workload():
    assert set(SMALL) == set(workloads.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_are_byte_identical_for_one_seed(name, tmp_path):
    workload, seed = small(name, tmp_path)
    first = workload.input_digest(workload.build(seed))
    assert workload.input_digest(workload.build(seed)) == first
    assert workload.input_digest(workload.build(seed + 1)) != first


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_outputs_equal_untraced_outputs(name, tmp_path):
    workload, seed = small(name, tmp_path)
    ops = workload.ops(workload.build(seed))
    untraced = run.Runs()
    for op in ops:
        untraced.run(op)
    tracer = tracing.Tracer()
    original = wdmix.model_selection.select_model
    original_post_init = wdmix.core.GaussianComponent.__post_init__
    tracer.install()
    try:
        traced = run.Runs()
        for op in ops:
            traced.run(op, tracer)
    finally:
        tracer.restore()
    assert not untraced.failures and not traced.failures
    assert {k: o.digest for k, o in traced.outcomes.items()} == {
        k: o.digest for k, o in untraced.outcomes.items()
    }
    assert wdmix.model_selection.select_model is original
    assert wdmix.core.GaussianComponent.__post_init__ is original_post_init
    names = {span[2] for span in tracer.spans}
    assert tracing.HARNESS_SPAN in names and "core.GaussianComponent" in names
    assert all(span[4] is not None and span[4] >= span[3] for span in tracer.spans)
    metrics = tracer.per_layer_metrics({}, 0.0)
    assert list(metrics) == tracing.per_layer_metric_names()


def test_select_check_flags_nan_model(tmp_path):
    workload, seed = small("select_easy600", tmp_path)
    op = workload.ops(workload.build(seed))[0]
    report = op.run()
    op.check(report)
    with pytest.raises(workloads.CheckFailed):
        op.check(dataclasses.replace(report, final_model=nan_model(report.final_model)))


def test_fit_checks_flag_nan_model_and_descent(tmp_path):
    workload, seed = small("fit_d8", tmp_path)
    op = workload.ops(workload.build(seed))[0]
    fit_wd, fit_fwd, score = op.run()
    op.check((fit_wd, fit_fwd, score))
    broken = dataclasses.replace(fit_fwd, final_model=nan_model(fit_fwd.final_model))
    with pytest.raises(workloads.CheckFailed):
        op.check((fit_wd, broken, score))
    trace = list(fit_wd.objective_trace)
    trace[-1] = trace[-2] - 1.0
    descending = dataclasses.replace(fit_wd, objective_trace=tuple(trace))
    with pytest.raises(workloads.CheckFailed):
        op.check((descending, fit_fwd, score))


def test_av_check_flags_nan_model(tmp_path):
    workload, seed = small("av_scenes", tmp_path)
    op = workload.ops(workload.build(seed))[0]
    result, report, detected = op.run()
    op.check((result, report, detected))
    model = nan_model(report.final_model)
    with pytest.raises(workloads.CheckFailed):
        op.check((dataclasses.replace(result, model=model),
                  dataclasses.replace(report, final_model=model), detected))


def test_cli_check_flags_one_flipped_byte(tmp_path):
    workload, seed = small("cli_chain", tmp_path)
    chain_a, chain_b = workload.ops(workload.build(seed))

    def run_and_flip():
        d = chain_b.run()
        path = d / "sel.assignments.csv"
        blob = bytearray(path.read_bytes())
        last_digit = max(i for i, c in enumerate(blob) if chr(c).isdigit())
        blob[last_digit] = ord("1") if blob[last_digit] != ord("1") else ord("0")
        path.write_bytes(bytes(blob))
        return d

    runs = run.Runs()
    runs.run(chain_a)
    runs.run(chain_b)
    assert not runs.failures
    runs.run(workloads.Op(chain_b.name, run_and_flip, chain_b.check, key=chain_b.key))
    assert len(runs.failures) == 1 and runs.attempted == 3


def test_failing_op_is_counted_not_fatal():
    def boom():
        raise wdmix.errors.AllAnnihilated("every component fell below the minimum support")

    runs = run.Runs()
    runs.run(workloads.Op("boom", boom, lambda output: None))
    assert runs.attempted == 1 and len(runs.failures) == 1 and not runs.outcomes


def test_run_for_starts_no_op_that_would_end_past_the_time():
    def op(name):
        return workloads.Op(name, functools.partial(time.sleep, 0.05),
                            lambda _: workloads.Outcome(name, 1, {"solvers": []}))

    ops = [op("nap0"), op("nap1")]
    runs = run.run_for(ops, 0.12)
    assert {name: len(times) for name, times in runs.times.items()} == {"nap0": 1, "nap1": 1}
    runs = run.run_for(ops, 0.4)
    assert all(len(times) >= 2 for times in runs.times.values())


def test_unit_ms_is_run_time_over_work_run():
    class NoQuality:
        def summarize(self, outcomes):
            return {}

    ops = [workloads.Op("a", None, None), workloads.Op("b", None, None)]
    runs = run.Runs()
    runs.times = {"a": [0.2, 0.4], "b": [0.3]}
    runs.outcomes = {"a": workloads.Outcome("a", 10, {"solvers": []}),
                     "b": workloads.Outcome("b", 30, {"solvers": []})}
    runs.attempted = 3
    metrics = run.end_to_end(NoQuality(), ops, runs, 1.0)
    assert metrics["unit_ms"][0] == pytest.approx(1000.0 * 0.9 / (2 * 10 + 30))


def test_stop_cause():
    assert workloads.stop_cause(True, 10, 2000) == "tolerance"
    assert workloads.stop_cause(False, 2000, 2000) == "budget"
    assert workloads.stop_cause(False, 37, 2000) == "all_annihilated"


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOAD_NAMES)
    assert [m["name"] for m in spec["per_layer"]] == tracing.per_layer_metric_names()
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert "setup_s" in e2e
    workload, seed = workloads.SelectEasy600(n=150, k_high=4), 3
    ops = workload.ops(workload.build(seed))
    metrics = run.end_to_end(workload, ops, run.run_for(ops, 0.0), 1.0)
    assert e2e <= set(metrics)
    assert all(metrics[name][0] for name in e2e)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "select_easy600", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
