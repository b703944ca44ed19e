"""Spans around rdbounds' public functions, installed from outside the library.

Every public function of each layer module is replaced, in every rdbounds
namespace that holds it (``bounds.normalizer`` as well as
``tilted.normalizer``), by a wrapper that records a span: name, layer, start,
end, parent span, top-level call id and pass number.  Spans stay in memory
until the run ends.  The CLI's thread pool is wrapped too, so that work done
in a worker thread keeps the submitting span as its parent.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import inspect
import itertools
import threading
import time

import numpy as np

LAYERS = ("tilted", "sources", "bounds", "convolution", "quadrature", "spectral", "ba", "cli")
SOURCE_CLASSES = ("Laplacian", "Gaussian", "Tabulated")


def _conv_points(args, kwargs, result):
    y = kwargs["y"] if "y" in kwargs else args[3]
    return np.size(y)


# per-function counters: name -> fn(args, kwargs, result) -> number
COUNTERS = {
    "convolution.conv_pdf": _conv_points,
    "quadrature.panel_nodes": lambda a, k, r: r[0].size,
    "ba.ba_iterate": lambda a, k, r: r.iterations,
}
# per-function tags: name -> fn(args, kwargs) -> str
TAGS = {
    "bounds.convolution_upper_bound": lambda a, k: type(a[0]).__name__.lower(),
    "ba.ba_iterate": lambda a, k: f"n{a[0].x_grid.size}",
}


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "call", "pass_no",
                 "count", "tag")

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Records spans; ``install`` wraps the library, ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_no = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- span stack ------------------------------------------------------
    def current(self):
        return getattr(self._local, "span", None)

    def _open(self, name, layer):
        parent = self.current()
        span = Span()
        span.id = next(self._ids)
        span.name, span.layer = name, layer
        span.parent = parent.id if parent else None
        span.call = parent.call if parent else span.id
        span.pass_no = self.pass_no
        span.count = None
        span.tag = None
        self._local.span = span
        span.start = time.perf_counter()
        return span, parent

    def _close(self, span, parent):
        span.end = time.perf_counter()
        self._local.span = parent
        self.spans.append(span)

    def top_level(self, name, fn):
        """Run fn() as one top-level call of the current pass."""
        span, parent = self._open(name, "bench")
        try:
            return fn()
        finally:
            self._close(span, parent)

    # -- wrapping --------------------------------------------------------
    def _wrap(self, name, layer, fn):
        counter, tagger = COUNTERS.get(name), TAGS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, parent = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, parent)
            if tagger:
                span.tag = tagger(args, kwargs)
            if counter:
                span.count = counter(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        modules = {layer: importlib.import_module(f"rdbounds.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("rdbounds"), *modules.values()]
        for layer, mod in modules.items():
            names = getattr(mod, "__all__", None) or [n for n in vars(mod)
                                                     if not n.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", layer, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, wrapped)
        sources = modules["sources"]
        for cls_name in SOURCE_CLASSES:
            cls = getattr(sources, cls_name)
            for attr, fn in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(fn):
                    self._patch(cls, attr, self._wrap(f"sources.{attr}", "sources", fn))
        self._patch(modules["cli"], "ThreadPoolExecutor", self._executor())

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _executor(self):
        tracer = self

        class ParentingExecutor(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run():
                    tracer._local.span = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.span = None

                return super().submit(run)

        return ParentingExecutor


def _union(intervals):
    total, end = 0.0, None
    start = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        else:
            end = max(end, b)
    if end is not None:
        total += end - start
    return total


def self_times(spans):
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict[int, list] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        kids = [(max(c.start, sp.start), min(c.end, sp.end)) for c in children.get(sp.id, ())]
        out[sp.id] = (sp.end - sp.start) - _union([k for k in kids if k[1] > k[0]])
    return out


def layer_busy(spans, layer):
    return _union([(sp.start, sp.end) for sp in spans if sp.layer == layer])
