"""The per-layer metrics of BENCHMARK.json read the tracer's counters by
function name; a renamed function would read as 0 calls without any error."""
import importlib
import inspect
import json
import os

from wingtail.mixed import MixedModel

BENCHMARK = os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")


def resolves(name: str) -> bool:
    """Whether `module.function` is a public function of wingtail.<module>, or
    `mixed.MixedModel.method` a method of MixedModel."""
    module, _, function = name.partition(".")
    if module == "mixed" and function.startswith("MixedModel."):
        return inspect.isfunction(vars(MixedModel).get(function.partition(".")[2]))
    fn = vars(importlib.import_module(f"wingtail.{module}")).get(function)
    # the tracer's own rule: a callable, not a class, defined in that module
    return (callable(fn) and not isinstance(fn, type) and not function.startswith("_")
            and getattr(fn, "__module__", None) == f"wingtail.{module}")


def test_per_layer_names_resolve():
    with open(BENCHMARK) as fh:
        entries = json.load(fh)["per_layer"]
    names = [e["name"].rsplit(".", 1)[0] for e in entries if e["name"].endswith((".calls", ".self_ms"))]
    assert "numerics.integrate" in names and "mixed.MixedModel.log_moment" in names
    assert [name for name in names if not resolves(name)] == []
