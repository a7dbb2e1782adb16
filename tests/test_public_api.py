"""The package's public surface: exported names and the version string."""

import sys
from pathlib import Path

import pytest

import wdmix


def test_every_exported_name_resolves():
    missing = [name for name in wdmix.__all__ if not hasattr(wdmix, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(wdmix.__all__) == len(set(wdmix.__all__))


def test_version_matches_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        assert wdmix.__version__ == tomllib.load(handle)["project"]["version"]
