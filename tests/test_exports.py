"""Every name a wingtail module exports in `__all__` must exist; a stale entry
left by a deletion would only surface as an error on `import *`. And every
exported name must be used by the program or its benchmark, not only by the
tests."""
import ast
import glob
import importlib
import os
import pkgutil

import pytest

import wingtail

MODULES = ["wingtail"] + [f"wingtail.{info.name}" for info in pkgutil.iter_modules(wingtail.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [entry for entry in exported if not hasattr(module, entry)] == []


ROOT = os.path.join(os.path.dirname(__file__), "..")
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "wingtail", "*.py"))
                 + glob.glob(os.path.join(ROOT, "perfbench", "*.py")))

# exported names that only the tests call, each kept in src/ for its reason
TEST_ONLY_EXPORTS = {
    # the independent reference that the tests check heston.mgf against
    "oracles.riccati_log_mgf",
}


def referenced_names() -> set[str]:
    """Names that some Name or Attribute node of src/ or perfbench/ reads,
    outside a top-level definition of the same name (a function calling
    itself, a class naming itself)."""
    names = set()
    for path in SOURCES:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name != own:
                    names.add(name)
    return names


def test_every_export_is_used_outside_the_tests():
    # a public name that only tests reach is test-only code in src/; dunder
    # names (`__version__`) are package metadata, not code
    used = referenced_names()
    unused = []
    for name in MODULES:
        for entry in getattr(importlib.import_module(name), "__all__", []):
            qualified = f"{name.removeprefix('wingtail').lstrip('.') or 'wingtail'}.{entry}"
            if entry not in used and qualified not in TEST_ONLY_EXPORTS and not entry.startswith("__"):
                unused.append(qualified)
    assert unused == []
    assert all(name.rpartition(".")[2] not in used for name in TEST_ONLY_EXPORTS)


def test_every_allowlisted_name_is_exported():
    # an entry left by a rename or a deletion names no export, and the check
    # above, which only asks that src/ not read it, would let it pass
    stale = []
    for qualified in TEST_ONLY_EXPORTS:
        module, _, entry = qualified.rpartition(".")
        exported = getattr(importlib.import_module("wingtail" if module == "wingtail" else f"wingtail.{module}"),
                           "__all__", [])
        if entry not in exported:
            stale.append(qualified)
    assert stale == []
