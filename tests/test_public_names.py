"""Every name a module exports resolves, so a deleted helper cannot linger in ``__all__``."""

import importlib
import pkgutil

import pytest

import exactsens

# the command-line module exports no names
MODULES = ["exactsens"] + [
    f"exactsens.{info.name}" for info in pkgutil.iter_modules(exactsens.__path__)
    if info.name != "cli"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
