"""Every name a module exports resolves, so no deletion leaves an export behind."""

import importlib
import pkgutil

import pytest

import besseltau

MODULES = ["besseltau"] + [
    f"besseltau.{info.name}" for info in pkgutil.iter_modules(besseltau.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert missing == []
