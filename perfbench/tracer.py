"""Per-layer timing by wrappers installed around the program's public functions.

`Tracer.install()` replaces every public function of each `wingtail` module
(each function defined there whose name has no leading underscore, such as
the `cmd_*` bodies of `cli`) and the public methods of `MixedModel` with a
timing wrapper. A function imported by name into another module (say
`find_root` into `heston`, `oracles` and `smile`) is replaced under every
binding, so no call escapes its wrapper. `uninstall()` puts the originals back.

Spans are folded into per-name totals as they close, not kept one by one: an
exact `mixed_density` point makes about 700,000 of them. For each name the
tracer keeps the number of calls, the inclusive time and the self time, which
is the inclusive time minus the time spent in wrapped callees.
"""
from __future__ import annotations

import functools
import importlib
import time

MODULES = ("numerics", "mellin", "heston", "kou", "nig", "mixed", "smile", "oracles", "cli", "acceptance")


class LayerStats:
    __slots__ = ("calls", "self_ns", "total_ns")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        # one accumulator of callee time per open span; the bottom entry
        # collects the time of top-level spans
        self._child_ns = [0]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, LayerStats())
        child_ns = self._child_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_ns.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - child_ns.pop()
                child_ns[-1] += elapsed

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"wingtail.{name}") for name in MODULES]
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue  # imported; wrapped under its own module
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            self._restore.append((other, key, value))
                            setattr(other, key, wrapper)
        mixed = importlib.import_module("wingtail.mixed")
        for attr in ("log_moment", "moment_strip", "jump_moment"):
            fn = vars(mixed.MixedModel)[attr]
            self._restore.append((mixed.MixedModel, attr, fn))
            setattr(mixed.MixedModel, attr, self._wrap(f"mixed.MixedModel.{attr}", fn))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def get(self, name: str) -> LayerStats:
        return self.stats.get(name, LayerStats())
