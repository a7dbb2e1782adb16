"""Every script in tools/ still imports and parses its options."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("tool", sorted(p.name for p in (ROOT / "tools").glob("*.py")))
def test_help_runs(tool):
    proc = subprocess.run([sys.executable, f"tools/{tool}", "--help"], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
