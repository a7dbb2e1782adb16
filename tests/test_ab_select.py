"""The summary that tools/ab_select.py prints; its timing runs outside Tier-1."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_select.py"
_SPEC = importlib.util.spec_from_file_location("ab_select", _PATH)
ab_select = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_select)


def test_summary_quartiles_gap_and_wins():
    base = [0.10, 0.12, 0.11, 0.13, 0.20]
    head = [0.09, 0.10, 0.12, 0.10, 0.15]
    got = ab_select.summarize(base, head)
    assert got["base"] == {"median": 0.12, "q1": pytest.approx(0.11), "q3": pytest.approx(0.13)}
    assert got["head"]["median"] == 0.10
    assert got["median_gap_rel"] == pytest.approx(-1.0 / 6.0)
    assert got["head_wins"] == 4 and got["rounds"] == 5  # round 2 went to the base


def test_a_tie_is_no_win():
    assert ab_select.summarize([0.1, 0.2], [0.1, 0.2])["head_wins"] == 0


def test_format_line():
    line = ab_select.format_line("av_scenes", ab_select.summarize([0.1], [0.08]))
    assert line == (
        "av_scenes: ms/update base 0.1000 [0.1000-0.1000] head 0.0800 [0.0800-0.0800] "
        "-20.0%, head faster in 1/1 rounds"
    )


def test_report_digest_sees_every_float():
    from wdmix import MmlConfig, generate_sim, select_model

    report = select_model(generate_sim("easy", 60, seed=1), MmlConfig(k_high=3), seed=1, restarts=1)
    base = ab_select.report_digest(report)
    assert ab_select.report_digest(report) == base
    trace = list(report.objective_trace)
    trace[-1] = np.nextafter(trace[-1], np.inf)
    moved = type(report)(**{**report.__dict__, "objective_trace": tuple(trace)})
    assert ab_select.report_digest(moved) != base
