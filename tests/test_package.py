"""Every public name a module lists in ``__all__`` exists: the benchmark's
tracer looks each one up, so a stale entry breaks a traced run."""

import importlib

import pytest

MODULES = ["lattice", "environment", "solver", "homogenization", "sampler",
           "experiments", "cli"]


def test_package_imports():
    package = importlib.import_module("homfield")
    assert package.__version__


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    mod = importlib.import_module(f"homfield.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"homfield.{name}.__all__ lists missing names {missing}"
