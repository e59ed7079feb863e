"""Public names: every name a module exports in __all__ exists."""
import importlib
import pkgutil

import pytest

import fabme

MODULES = sorted(m.name for m in pkgutil.iter_modules(fabme.__path__))


@pytest.mark.parametrize("name", ["fabme"] + [f"fabme.{m}" for m in MODULES])
def test_all_names_exist(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__), f"{name}.__all__ repeats a name"


def test_star_import():
    ns = {}
    exec("from fabme import *", ns)
    assert set(fabme.__all__) <= set(ns)
