"""tools/bench_pairs.py without its processes: the pair order, and the scoring it writes into BENCH_<pr>.json."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parent.parent
_PATH = ROOT / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _side(q1, median, q3):
    return {"q1": q1, "median": median, "q3": q3}


BASE = _side(0.18, 0.20, 0.22)  # quartile spread 0.04


@pytest.mark.parametrize(
    "head, wins, met",
    [
        (_side(0.14, 0.15, 0.16), 9, True),  # gap 0.05 > spread 0.04, 9/10 pairs
        (_side(0.14, 0.15, 0.16), 8, False),  # too few pairs won
        (_side(0.16, 0.17, 0.18), 10, False),  # gap 0.03 within the spread
        (_side(0.24, 0.25, 0.26), 10, False),  # better on no side
    ],
)
def test_gain_rule(head, wins, met):
    got = bench_pairs.verdict(BASE, head, wins, 10, "lower", 0.25)
    assert got["gain_rule_met"] is met
    assert got["base_spread"] == pytest.approx(0.04)
    assert got["median_gap"] == pytest.approx(head["median"] - 0.20)


def test_gain_rule_for_higher_is_better():
    head = _side(0.26, 0.27, 0.28)
    assert bench_pairs.verdict(BASE, head, 10, 10, "higher", 0.2)["gain_rule_met"]
    assert not bench_pairs.verdict(BASE, head, 10, 10, "lower", 0.2)["gain_rule_met"]


@pytest.mark.parametrize("median, better, worse", [
    (0.26, "lower", True),  # 30% worse against a 25% bound
    (0.24, "lower", False),  # 20% worse: within the bound
    (0.14, "higher", True),
    (0.26, "higher", False),
])
def test_worse_than_bound(median, better, worse):
    head = _side(median, median, median)
    assert bench_pairs.verdict(BASE, head, 0, 10, better, 0.25)["worse_than_bound"] is worse


def test_summary_line_names_each_metric():
    metric = {**bench_pairs.verdict(BASE, _side(0.14, 0.15, 0.16), 10, 10, "lower", 0.25), "head_wins": 10}
    line = bench_pairs.summary_line("av_scenes", {"unit_ms": metric})
    assert line == "av_scenes: unit_ms -25.0% wins 10 GAIN"


def test_src_lines_counts_the_package_modules_only(tmp_path):
    package = tmp_path / "src" / "wdmix"
    (package / "data").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("\n\nz = 3")  # wc -l counts newlines: 2
    (package / "data" / "c.py").write_text("skipped\n")
    (package / "notes.txt").write_text("skipped\n")
    assert bench_pairs.src_lines(tmp_path) == 4


def test_score_is_bench_pairs_summary_and_verdict(monkeypatch):
    calls = []
    verdict = bench_pairs.verdict

    def spy(*args):
        calls.append(args)
        return verdict(*args)

    monkeypatch.setattr(bench_pairs, "verdict", spy)
    base = [0.10, 0.12, 0.11, 0.13, 0.20]
    head = [0.09, 0.10, 0.12, 0.10, 0.15]
    got = bench_pairs.score(base, head, "lower", 0.25)
    assert calls == [(bench_pairs.summary(base), bench_pairs.summary(head), 4, 5, "lower", 0.25)]
    assert got["base"]["median"] == 0.12
    assert (got["base"]["q1"], got["base"]["q3"]) == (pytest.approx(0.11), pytest.approx(0.13))
    assert got["head"]["median"] == 0.10
    assert got["median_gap_rel"] == pytest.approx(-1.0 / 6.0)
    assert got["head_wins"] == 4  # round 2 went to the base
    assert not got["gain_rule_met"]  # 4/5 rounds
    assert bench_pairs.summary_line("fit_d8", {"unit_ms": got}) == "fit_d8: unit_ms -16.7% wins 4"


def test_pair_ratios_are_the_median_and_quartile_spread_of_head_over_base():
    base = [0.10, 0.20, 0.40, 0.50, 1.00]
    head = [0.09, 0.20, 0.30, 0.45, 0.70]  # ratios 0.9, 1.0, 0.75, 0.9, 0.7
    got = bench_pairs.score(base, head, "lower", 0.25)
    assert got["ratio_median"] == pytest.approx(0.9)
    assert got["ratio_spread"] == pytest.approx(0.9 - 0.75)
    # Reporting only: the verdict is the one the quartiles of each side give.
    assert got["base_spread"] == pytest.approx(0.5 - 0.2)
    assert not got["gain_rule_met"]


def test_pair_ratios_of_one_pair_and_of_a_zero_base():
    assert bench_pairs.pair_ratios([2.0], [1.0]) == {"ratio_median": 0.5, "ratio_spread": 0.0}
    assert bench_pairs.pair_ratios([0.0, 1.0], [0.5, 1.0]) == {"ratio_median": None, "ratio_spread": None}


@settings(max_examples=200)
@given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=20), st.floats(0.5, 2.0))
def test_a_constant_head_base_ratio_has_no_spread(base, factor):
    got = bench_pairs.pair_ratios(base, [factor * b for b in base])
    assert got["ratio_median"] == pytest.approx(factor)
    assert got["ratio_spread"] == pytest.approx(0.0, abs=1e-12)


def test_a_tie_is_no_win():
    assert bench_pairs.score([0.1, 0.2], [0.1, 0.2], "lower", 0.25)["head_wins"] == 0


@settings(max_examples=200)
@given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=20).flatmap(
    lambda values: st.tuples(st.just(values), st.permutations(values))
))
def test_a_a_rounds_never_meet_the_gain_rule(rounds):
    # The same figures in any round order: equal medians, so no gain at any spread.
    base, head = rounds
    assert not bench_pairs.score(base, head, "lower", 0.25)["gain_rule_met"]


def _keys(value):
    """The nested dict keys of ``value``; anything that is not a dict is a leaf."""
    return {k: _keys(v) for k, v in value.items()} if isinstance(value, dict) else None


def test_run_pairs_is_pair_major_with_abba_order_in_each_pair(tmp_path, monkeypatch):
    checkouts = {"base": tmp_path / "base", "head": tmp_path / "head"}
    checkouts["head"].mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", checkouts["head"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    calls = []

    def fake_run_once(checkout, workload, seed):
        calls.append((checkout.name, workload, seed))
        value = float(len(calls))
        return {"metrics": {m["name"]: {"value": value} for m in spec["end_to_end"]},
                "attempted": 2, "failed": 0, "correct": True}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    got = bench_pairs.run_pairs(checkouts, 3, [41, 59])

    orders = [("base", "head"), ("head", "base"), ("base", "head")]
    expected = [(side, w, seed) for order, seed in zip(orders, [41, 59, 41]) for w in workloads for side in order]
    assert calls == expected
    # BENCH_22.json's shape, plus the pair-ratio summary of every metric.
    want = _keys(json.loads((ROOT / "BENCH_22.json").read_text())["workloads"])
    for workload in want.values():
        for metric in workload["metrics"].values():
            metric.update(ratio_median=None, ratio_spread=None)
    assert _keys(got) == want
    first = got[workloads[0]]
    assert first["metrics"]["unit_ms"]["base"]["runs"] == [1.0, 2 * len(workloads) + 2.0, 4 * len(workloads) + 1.0]
    assert first["attempted"] == {"base": 6, "head": 6}
