"""The paired-runs verdict that tools/bench_pairs.py writes into BENCH_<pr>.json."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
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
