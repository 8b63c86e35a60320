"""Every name a module exports or the README lists resolves, so a deleted helper cannot linger."""

import importlib
import pkgutil
import re
from pathlib import Path

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


def test_readme_entry_points_resolve():
    # a helper deleted from the package must leave the README's list too
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("Key entry points:", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`([A-Za-z_][A-Za-z0-9_.]*)`", paragraph)
    assert "exact_alpha" in names and "power_curve" in names
    modules = [importlib.import_module(m) for m in MODULES]
    missing = [n for n in names
               if not any(hasattr(m, n) for m in modules) and f"exactsens.{n}" not in MODULES]
    assert missing == []
