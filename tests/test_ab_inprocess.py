"""tools/ab_inprocess.py without its timing: the scoring, the output digest and the per-side loader."""

import copy
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wdmix

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "tools"))  # ab_inprocess imports bench_pairs from its own directory

import ab_inprocess  # noqa: E402
import bench_pairs  # noqa: E402


def test_score_is_bench_pairs_summary_and_verdict(monkeypatch):
    calls = []
    verdict = bench_pairs.verdict

    def spy(*args):
        calls.append(args)
        return verdict(*args)

    monkeypatch.setattr(bench_pairs, "verdict", spy)
    base = [0.10, 0.12, 0.11, 0.13, 0.20]
    head = [0.09, 0.10, 0.12, 0.10, 0.15]
    got = ab_inprocess.score({"base": base, "head": head}, 0.25)
    assert calls == [(bench_pairs.summary(base), bench_pairs.summary(head), 4, 5, "lower", 0.25)]
    assert got["base"]["median"] == 0.12
    assert (got["base"]["q1"], got["base"]["q3"]) == (pytest.approx(0.11), pytest.approx(0.13))
    assert got["head"]["median"] == 0.10
    assert got["median_gap_rel"] == pytest.approx(-1.0 / 6.0)
    assert got["head_wins"] == 4  # round 2 went to the base
    assert not got["gain_rule_met"]  # 4/5 rounds
    assert bench_pairs.summary_line("fit_d8", {"unit_ms": got}) == "fit_d8: unit_ms -16.7% wins 4"


def test_a_tie_is_no_win():
    assert ab_inprocess.score({"base": [0.1, 0.2], "head": [0.1, 0.2]}, 0.25)["head_wins"] == 0


@settings(max_examples=200)
@given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=20).flatmap(
    lambda values: st.tuples(st.just(values), st.permutations(values))
))
def test_a_a_rounds_never_meet_the_gain_rule(rounds):
    # The same figures in any round order: equal medians, so no gain at any spread.
    base, head = rounds
    assert not ab_inprocess.score({"base": base, "head": head}, 0.25)["gain_rule_met"]


def _nudge(obj, path):
    """A deep copy of ``obj`` with the float at ``path`` (attribute names and indices) moved by one ulp."""
    moved = copy.deepcopy(obj)
    owner = moved
    for step in path[:-2]:
        owner = owner[step] if isinstance(step, int) else getattr(owner, step)
    name, index = path[-2:]
    value = getattr(owner, name)
    if isinstance(value, tuple):
        items = list(value)
        items[index] = np.nextafter(items[index], np.inf)
        object.__setattr__(owner, name, tuple(items))
    else:
        array = np.array(value)
        array.flat[index] = np.nextafter(array.flat[index], np.inf)
        object.__setattr__(owner, name, array)
    return moved


@pytest.fixture(scope="module")
def selection():
    return wdmix.select_model(wdmix.generate_sim("easy", 60, seed=1), wdmix.MmlConfig(k_high=3), seed=1, restarts=1)


@pytest.mark.parametrize("path", [
    ("objective_trace", -1),
    ("checkpoint_lengths", 0),
    ("final_model", "components", -1, "covariance", 3),
    ("final_responsibilities", "matrix", 7),
    ("final_weights", "marginal_mean", 11),
])
def test_float_digest_sees_one_float_of_a_report_in_a_tuple(selection, path):
    output = ("chain", selection, 3)
    digest = ab_inprocess.float_digest(output)
    assert ab_inprocess.float_digest(("chain", copy.deepcopy(selection), 3)) == digest
    assert ab_inprocess.float_digest(("chain", _nudge(selection, path), 3)) != digest


@pytest.mark.parametrize("path", [("relevance", 0), ("weights", 5), ("model", "proportions", 1)])
def test_float_digest_sees_one_float_of_a_segment_result(path):
    gen = np.random.default_rng(0)
    points = np.vstack([gen.normal(-60.0, 10.0, (40, 2)), gen.normal(60.0, 10.0, (40, 2))])
    scene = wdmix.validate_dataset(points, modality=["a"] * 20 + ["v"] * 60)
    result = wdmix.analyze_segment(scene, wdmix.AvConfig(seed=0))
    digest = ab_inprocess.float_digest(result)
    assert ab_inprocess.float_digest(copy.deepcopy(result)) == digest
    assert ab_inprocess.float_digest(_nudge(result, path)) != digest


def test_loader_binds_each_side_to_its_own_package(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "src" / "wdmix", tmp_path / "wdmix_copy")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        side = ab_inprocess.load_workloads("wdmix_copy", "workloads_copy")
        head = ab_inprocess.load_workloads("wdmix", "workloads_head")
        for module, package in ((side, "wdmix_copy"), (head, "wdmix")):
            assert module.wdmix is sys.modules[package]
            for sub in ("cli", "av_fusion", "model_selection"):
                assert getattr(module, sub) is sys.modules[f"{package}.{sub}"]
            assert module.Outcome("d", 1, {}).units == 1  # its dataclasses were built
        assert side.wdmix.__file__ == str(tmp_path / "wdmix_copy" / "__init__.py")
        assert side.Op is not head.Op
        assert sys.modules["wdmix"] is wdmix
        assert "workloads_copy" not in sys.modules and "workloads_head" not in sys.modules
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "wdmix_copy"]:
            del sys.modules[name]
