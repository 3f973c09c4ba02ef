"""Spans around the calls into each layer of the ``partitions`` package.

Nothing here is part of the library: :func:`install` replaces every public
function of the layer modules, and ``PartitionCache.extend_to``, with a
wrapper that records one span per call (name, start, end, parent) and a
few counters observed at the same boundary.  The wrapper is
rebound under every name any ``partitions`` module holds for the original,
so calls made through ``from .dedekind import a_k`` are traced too.

A name that the library no longer defines is simply not wrapped; its
metrics then read zero calls.

Spans stay in memory as flat integer arrays; :meth:`Tracer.summary` gives
per-name calls, total and self time, where self time is a span's duration
minus the durations of its direct children (calls nest strictly, the
package being single-threaded).
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
from array import array
from time import perf_counter_ns

LAYERS = (
    "exact", "rademacher", "dedekind", "asymptotics", "eta",
    "farey", "bessel", "precision", "cli",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` with a span per call; ``after(args, kwargs, result, state)``
        sees the result and whatever ``before(args, kwargs)`` returned."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0)
            self.end.append(0)
            stack.append(i)
            state = before(args, kwargs) if before else None
            self.start[i] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter_ns()
                stack.pop()
            if after:
                after(args, kwargs, result, state)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def summary(self) -> dict:
        """Per span name: calls, total and self nanoseconds; plus counters."""
        n = len(self.start)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        spans = {name: [0, 0, 0] for name in self.names}
        for i in range(n):
            row = spans[self.names[self.name[i]]]
            duration = end[i] - start[i]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[i]
        return {
            "spans": {k: {"calls": v[0], "total_ns": v[1], "self_ns": v[2]} for k, v in spans.items()},
            "counters": dict(self.counters),
        }


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _observers(tracer: Tracer, fn_name: str, fn):
    """(before, after) hooks for the spans that also count work."""
    if fn_name == "rademacher.p_series":
        def after(args, kwargs, result, state):
            tracer.count("rademacher.terms_used", getattr(result, "n_terms_used", 0))
        return None, after
    if fn_name == "rademacher.r_k":
        signature = inspect.signature(fn)

        def after(args, kwargs, result, state):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            bits = getattr(bound.arguments.get("ctx"), "bits", 0)
            tracer.count("rademacher.prec_bits_sum", bits)
        return None, after
    if fn_name == "exact.extend_to":
        def before(args, kwargs):
            return getattr(args[0], "max_n", 0)

        def after(args, kwargs, result, state):
            tracer.count("exact.values_added", getattr(args[0], "max_n", 0) - state)
        return before, after
    if fn_name == "exact.cache_load":
        def before(args, kwargs):
            return _file_size(args[0] if args else kwargs.get("path"))
        return before, lambda args, kwargs, result, size: tracer.count("exact.cache_load.bytes", size)
    if fn_name == "exact.cache_save":
        def path_of(args, kwargs):
            return args[1] if len(args) > 1 else kwargs.get("path")

        def before(args, kwargs):
            return _file_size(path_of(args, kwargs))

        def after(args, kwargs, result, old_size):
            new_size = _file_size(path_of(args, kwargs))
            tracer.count("exact.cache_save.bytes", new_size)
            tracer.count("exact.cache_save.useful", int(new_size > old_size))
        return before, after
    return None, None


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions and rebind them package-wide."""
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"partitions.{layer}")
        except ImportError:
            continue
    replacements = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            replacements[id(value)] = tracer.wrap(name, value, *_observers(tracer, name, value))
    exact = modules.get("exact")
    cache_cls = getattr(exact, "PartitionCache", None)
    if cache_cls is not None and inspect.isfunction(getattr(cache_cls, "extend_to", None)):
        original = cache_cls.extend_to
        cache_cls.extend_to = tracer.wrap(
            "exact.extend_to", original, *_observers(tracer, "exact.extend_to", original)
        )
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "partitions" and not mod_name.startswith("partitions."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
