"""Per-layer spans recorded from outside the package.

The tracer replaces every public module-level function of the chainsense
layers with a timing wrapper, at every place the function is bound: the
defining module, and every other chainsense module that imported it by
name (``from .symca import symbolic_markov`` binds a second reference
that patching only the defining module would miss).

Each wrapper keeps a stack of open spans, so a span's self time is its
duration minus the time of the spans it caused.  Spans read the process
CPU clock, as the benchmark's op times do.  The benchmark opens a
root span per op; whatever the op spends outside every wrapped function
(argument parsing, report rendering, unwrapped helpers of ``cli``) is
the ``cli`` layer's self time, so the layers' self times add up to the
op's wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

#: the chainsense submodules (and the symca subpackage) timed as layers;
#: ``prng`` and ``errors`` are not layers, so their time is their callers'
LAYERS = ("cli", "pauli", "accessible", "ssm", "realization", "exact", "sta",
          "symca", "estimate")


def layer_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    if parts[0] == "chainsense" and len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return None


def _all_modules(package) -> list:
    mods = [package]
    for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
        mods.append(importlib.import_module(info.name))
    return mods


class Tracer:
    """Self time and call counts per wrapped function, plus a few counters
    read off the results of functions that report their own work."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._op_configs: set = set()
        self._originals: dict[int, object] = {}

    # -- installation -------------------------------------------------------

    def install(self, package) -> int:
        """Wrap every public function of every layer module at every binding
        site; returns the number of distinct functions wrapped."""
        modules = _all_modules(package)
        wrappers: dict[int, object] = {}
        names: dict[str, str] = {}
        for mod in modules:
            layer = layer_of(mod.__name__)
            if layer is None:
                continue
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                key = f"{layer}.{name}"
                if key in names and names[key] != mod.__name__:
                    raise RuntimeError(f"two layer functions named {key}")
                names[key] = mod.__name__
                wrappers[id(fn)] = self._wrap(key, fn)
                self._originals[id(fn)] = fn
        for mod in modules:
            for name, value in list(vars(mod).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None and value is self._originals[id(value)]:
                    setattr(mod, name, wrapped)
        self.assert_covered(modules)
        return len(wrappers)

    def assert_covered(self, modules) -> None:
        """No chainsense module may still hold an unwrapped original."""
        for mod in modules:
            for name, value in vars(mod).items():
                if self._originals.get(id(value)) is value:
                    raise RuntimeError(
                        f"{mod.__name__}.{name} escaped the span wrappers"
                    )

    def _wrap(self, key: str, fn):
        hook = _HOOKS.get(key)
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                calls[key] += 1
                self_s[key] += took - frame[0]
            if hook is not None:
                hook(self, out, args)
            return out

        return wrapper

    # -- ops ----------------------------------------------------------------

    def begin_op(self) -> None:
        self._stack.append([0.0])
        self._op_configs = set()

    def end_op(self, wall_s: float) -> None:
        """Close the op's root span; its remainder is ``cli`` self time."""
        frame = self._stack.pop()
        if self._stack:
            raise RuntimeError("span stack not empty at the end of an op")
        self.self_s["cli"] += wall_s - frame[0]
        self.counters["ssm.build.distinct"] += len(self._op_configs)

    def layer_self_s(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for key, value in self.self_s.items():
            totals[key.split(".")[0]] += value
        return totals


# -- counters read off results -------------------------------------------------


def _on_build(tracer: Tracer, out, args) -> None:
    tracer._op_configs.add(args[0])


def _on_buchberger(tracer: Tracer, out, args) -> None:
    tracer.counters["symca.buchberger.pairs"] += out.pair_count


def _on_era(tracer: Tracer, out, args) -> None:
    rows, cols = out.diagnostics["hankel_shape"]
    tracer.counters["estimate.era.hankel_cells"] += rows * cols
    tracer.counters["estimate.era.ok"] += out.verdict == "ok"


_HOOKS = {
    "ssm.build": _on_build,
    "symca.buchberger": _on_buchberger,
    "estimate.era": _on_era,
}
