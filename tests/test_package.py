"""Every public name a module lists in ``__all__`` exists: the benchmark's
tracer looks each one up, so a stale entry breaks a traced run. And no
module of the package or of the tests imports a name it never uses (no
linter runs in tier 1)."""

import ast
import importlib
import pathlib

import pytest

MODULES = ["lattice", "environment", "solver", "homogenization", "sampler",
           "experiments", "cli"]
TEST_FILES = sorted(pathlib.Path(__file__).parent.glob("*.py"))


def test_package_imports():
    package = importlib.import_module("homfield")
    assert package.__version__


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    mod = importlib.import_module(f"homfield.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"homfield.{name}.__all__ lists missing names {missing}"


def unused_imports(source: str) -> list:
    """Names that ``source`` imports but never reads and does not list in
    ``__all__``. An import statement carrying ``# noqa: F401`` is exempt,
    as are ``__future__`` imports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read and name not in exported)


def test_unused_import_check_flags_and_exempts():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from dataclasses import dataclass, field\n"
              "from json import dumps  # noqa: F401\n"
              "from math import pi\n"
              "__all__ = ['pi']\n"
              "@dataclass\n"
              "class A:\n"
              "    field: int\n")
    assert unused_imports(source) == ["field (line 3)", "os (line 2)"]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    path = pathlib.Path(importlib.import_module(f"homfield.{name}").__file__)
    unused = unused_imports(path.read_text())
    assert not unused, f"homfield.{name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda p: p.stem)
def test_no_unused_imports_in_tests(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"tests/{path.name} imports names it never uses: {unused}"
