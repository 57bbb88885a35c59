"""The per-layer metrics of BENCHMARK.json read the tracer's counters by
function name, and the benchmark's cold passes empty the program's caches by
name; a renamed function would read as 0 calls, and a renamed cache stay warm,
without any error."""
import ast
import importlib
import inspect
import json
import os

from wingtail import heston, kou
from wingtail.heston import HestonParams
from wingtail.kou import KouJumpParams
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


WORKLOADS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")


def reset_hooks() -> list[str]:
    """The calls `module.name...()` into wingtail that perfbench's Workload.reset_caches makes."""
    with open(WORKLOADS) as fh:
        tree = ast.parse(fh.read())
    reset = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "reset_caches")
    return [ast.unparse(node.func) for node in ast.walk(reset)
            if isinstance(node, ast.Call) and not ast.unparse(node.func).startswith("self.")]


def test_benchmark_cache_resets_rebuild(monkeypatch):
    # the benchmark's cold passes empty these caches by name: a renamed cache
    # would leave them warm without any error
    assert sorted(reset_hooks()) == ["heston.critical_moments.cache_clear", "heston.tail_constants.cache_clear",
                                     "kou._TABLE_CACHE.clear"]
    params = HestonParams(mu=0.0, a=1.0, b=2.0, c=0.5, rho=-0.3, x0=1.0, y0=0.04, t=0.75)
    for cached in (heston.critical_moments, heston.tail_constants):
        cached(params)
        cached.cache_clear()
        cached(params)
        assert cached.cache_info().misses == 1
    built = []
    real = kou.coefficients
    monkeypatch.setattr(kou, "coefficients", lambda jumps, k_max: built.append(k_max) or real(jumps, k_max))
    jumps = KouJumpParams(lam=0.75, eta1=2.0, eta2=1.0, p=0.5, q=0.5, t=0.75)
    kou._TABLE_CACHE.pop(jumps, None)
    kou._table(jumps, 0)
    kou._table(jumps, 0)
    assert built == [64]
    kou._TABLE_CACHE.clear()
    kou._table(jumps, 0)
    assert built == [64, 64]
