import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rahtp"


def test_distribution_and_console_script_are_named_rahtp():
    # importlib.metadata.version("rahtp") needs the distribution to carry
    # the package's name
    tomllib = pytest.importorskip("tomllib")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(path.read_text())["project"]
    assert project["name"] == "rahtp"
    module, _, attr = project["scripts"]["rahtp"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


def _names_read(node):
    """The names and attribute names that a syntax tree refers to, with
    the strings of an __all__ list, which re-export names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif (isinstance(sub, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in sub.targets)):
            names.update(e.value for e in sub.value.elts)
    return names


def test_package_has_no_unused_imports_or_uncalled_private_functions():
    # every module-level import is read by its module, unless its line is
    # marked "# noqa: F401", and every module-level _private function is
    # referred to from outside its own body somewhere in the package
    modules = {p.name: (p.read_text().splitlines(), ast.parse(p.read_text()))
               for p in sorted(SRC.glob("*.py"))}
    problems = []
    for name, (lines, tree) in modules.items():
        read = _names_read(tree)
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if any("# noqa: F401" in lines[i - 1]
                   for i in range(stmt.lineno, stmt.end_lineno + 1)):
                continue
            for alias in stmt.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in read:
                    problems.append("%s imports %s and never reads it"
                                    % (name, bound))
    # per top-level statement of every module, the names it refers to
    refs = [(name, stmt, _names_read(stmt))
            for name, (_, tree) in modules.items() for stmt in tree.body]
    for name, stmt, _ in refs:
        if (isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_")
                and not stmt.name.startswith("__")
                and not any(stmt.name in names for _, other, names in refs
                            if other is not stmt)):
            problems.append("%s defines %s and nothing calls it"
                            % (name, stmt.name))
    assert not problems, problems
