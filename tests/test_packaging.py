import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")


def test_distribution_and_console_script_are_named_rahtp():
    # importlib.metadata.version("rahtp") needs the distribution to carry
    # the package's name
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(path.read_text())["project"]
    assert project["name"] == "rahtp"
    module, _, attr = project["scripts"]["rahtp"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
