"""Smoke test of the benchmark: one operation per workload, checks on, then
the same operation again under the tracer.

    python3 -m pytest perfbench/test_smoke.py
"""
from __future__ import annotations

import importlib
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from tracer import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckReport  # noqa: E402

# a layer each workload's first operation must reach
FIRST_LAYER = {
    "fourier-curves": "heston.log_mgf",
    "exact-density": "mellin.mellin_convolve",
    "param-sweep": "heston.critical_moments",
    "monte-carlo": "oracles.simulate_paths",
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_op_passes_checks_and_traces(name):
    workload = WORKLOADS[name](ROOT, seed=7, seconds=0)
    workload.setup()
    workload.draw()
    out = workload.run_op(0)
    report = CheckReport()
    workload.check(report, 0, out)
    assert report.correct, report.failures

    workload.reset_caches()
    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.run_op(0)
    finally:
        tracer.uninstall()
    assert traced == out
    stats = tracer.get(FIRST_LAYER[name])
    assert stats.calls > 0
    assert 0 < stats.self_ns <= stats.total_ns


def test_tracer_covers_every_binding():
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = {id(original) for _owner, _key, original in tracer._restore}
        modules = [importlib.import_module(f"wingtail.{m}") for m in MODULES]
        left = [f"{m.__name__}.{k}" for m in modules for k, v in vars(m).items() if id(v) in wrapped]
        assert not left
        assert {"numerics.integrate", "numerics.find_root", "mixed.MixedModel.log_moment",
                "cli.cmd_density"} <= set(tracer.stats)
    finally:
        tracer.uninstall()
