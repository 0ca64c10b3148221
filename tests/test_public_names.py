"""Every name the package and its modules export resolves to an attribute."""

import importlib
import pkgutil

import pytest

import rumin_eta

_MODULES = [rumin_eta] + [
    importlib.import_module(f"rumin_eta.{info.name}")
    for info in pkgutil.iter_modules(rumin_eta.__path__)
]


@pytest.mark.parametrize("module", _MODULES, ids=lambda module: module.__name__)
def test_exported_names_resolve(module):
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []
