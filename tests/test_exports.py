"""Every name a torusprop module exports in ``__all__`` must exist."""

import importlib
import pkgutil

import pytest

import torusprop

MODULES = ["torusprop"] + [f"torusprop.{m.name}" for m in pkgutil.iter_modules(torusprop.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
