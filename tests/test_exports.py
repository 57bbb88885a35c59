"""Every name a wingtail module exports in `__all__` must exist; a stale entry
left by a deletion would only surface as an error on `import *`."""
import importlib
import pkgutil

import pytest

import wingtail

MODULES = ["wingtail"] + [f"wingtail.{info.name}" for info in pkgutil.iter_modules(wingtail.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [entry for entry in exported if not hasattr(module, entry)] == []

