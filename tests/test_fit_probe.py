"""tools/fit_probe.py's phase tracer on a pass small enough to count by hand."""

import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "tools" / "fit_probe.py"
_SPEC = importlib.util.spec_from_file_location("fit_probe", _PATH)
fit_probe = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fit_probe)

SIZE = 1_000_000  # bytes of the phase's scratch array


def test_tracer_records_a_phase_s_bytes_and_keeps_its_result():
    tracer = fit_probe.PhaseTracer()

    def scratch_then_small():
        np.ones(SIZE, dtype=np.uint8).sum()  # freed before the phase returns
        return np.arange(8)

    phase = tracer.wrap("phase", scratch_then_small)
    output, peak = tracer.run(lambda: (phase(), phase())[-1])
    got = tracer.phases["phase"]
    assert got["transient"] >= SIZE
    assert 64 <= got["kept"] < SIZE
    assert got["held"] >= got["kept"]  # the first call's result is still held
    assert peak >= got["held"] + SIZE
    assert tracer.results["phase"] is output
    assert output.tolist() == list(range(8))


def test_a_pass_reports_only_its_own_phases():
    tracer = fit_probe.PhaseTracer()
    first, second = tracer.wrap("first", lambda: 1), tracer.wrap("second", lambda: 2)
    tracer.run(first)
    tracer.run(second)
    assert tracer.results == {"second": 2}
    assert list(tracer.phases) == ["second"]
