"""Outside-in span tracing for the benchmark.

The benchmark never edits ``src/``: it measures layers by wrapping the
public entry points of each ``repro`` module from outside, at run time.
A :class:`Tracer` keeps every span in memory (name, start, end, parent
span, run id, thread) and writes them out once, when the pass ends.

Parent links follow :mod:`contextvars`, not threads.  ``asyncio.to_thread``
copies the context, so a remote task call made from the graph scheduler's
executor thread is still recorded as a child of the scheduler span.
Threads started by ``threading`` (the HTTP server's request threads)
begin with an empty context, so their spans are top-level.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

# (layer, module, attribute).  An attribute "Class.method" wraps the
# method on the class; a plain name wraps the module-level function and
# every other ``repro`` module's binding of that same function object.
LAYER_ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("dataset", "repro.dataset.synthetic", "generate_house_trace"),
    ("dataset", "repro.dataset.synthetic", "generate_home_fleet"),
    ("dataset", "repro.dataset.synthetic", "iter_home_fleet"),
    ("adm", "repro.adm.cluster_model", "ClusterADM.fit"),
    ("geometry", "repro.geometry.halfplane", "stay_range_table"),
    ("geometry", "repro.geometry.halfplane", "points_in_hulls"),
    ("attack.schedule", "repro.attack.schedule", "shatter_schedule_batch"),
    ("attack.schedule", "repro.attack.schedule", "shatter_schedule"),
    ("attack.schedule", "repro.attack.schedule", "occupant_reward_table"),
    ("attack.realtime", "repro.attack.realtime", "execute_attack"),
    ("attack.biota", "repro.attack.biota", "biota_attack_samples"),
    ("attack.biota", "repro.attack.biota", "biota_greedy_attack"),
    ("attack.greedy", "repro.attack.greedy", "greedy_schedule"),
    ("hvac.simulation", "repro.hvac.simulation", "simulate"),
    ("hvac.simulation", "repro.hvac.simulation", "simulate_batch"),
    ("core.arrayframe", "repro.core.arrayframe", "encode_frame"),
    ("core.arrayframe", "repro.core.arrayframe", "decode_frame"),
    ("core.arrayframe", "repro.core.arrayframe", "decode_frame_file"),
    ("runner.scheduler", "repro.runner.scheduler", "GraphScheduler.run"),
    ("runner.remote", "repro.runner.remote", "RemoteExecutor.run_payload"),
    ("service", "repro.service.server", "ControlPlane.submit"),
    ("service", "repro.service.server", "ControlPlane.handle_http"),
    ("api", "repro.api.session", "Session.run"),
    ("api", "repro.api.session", "Session.run_with"),
    ("api.store", "repro.api.store", "RunStore.record"),
    ("events", "repro.events.processors", "JsonlEventWriter.handle"),
)

# The artifact cache's public tiers; each has a ``get_<tier>`` (``None``
# means a miss) and a ``put_<tier>``.
CACHE_TIERS = ("trace", "adm", "analysis", "rewards", "result")

# Layers reported as ``<layer>.calls`` / ``<layer>.self_s``.
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in LAYER_ENTRY_POINTS)) + (
    "runner.cache",
)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    thread: str


class Tracer:
    """Collects spans in memory; wraps entry points via :meth:`install`."""

    def __init__(self, run_id: str = "") -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.cache_lookups: dict[str, list[int]] = {}  # tier -> [hits, misses]
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._open_spans: dict[int, tuple[str, int | None]] = {}
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _open(self, name: str) -> tuple[int, int | None, contextvars.Token, float]:
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        with self._lock:
            self._open_spans[span_id] = (name, parent)
        return span_id, parent, token, time.perf_counter()

    def _close(self, name: str, opened: tuple) -> None:
        end = time.perf_counter()
        span_id, parent, token, start = opened
        self._current.reset(token)
        span = Span(
            span_id, name, start, end, parent, self.run_id,
            threading.current_thread().name,
        )
        with self._lock:
            del self._open_spans[span_id]
            self.spans.append(span)

    def inside(self, name: str) -> bool:
        """Whether the caller runs inside an open span called ``name``."""
        span_id = self._current.get()
        with self._lock:
            while span_id is not None:
                span_name, span_id = self._open_spans.get(span_id, ("", None))
                if span_name == name:
                    return True
        return False

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``.

        A generator function gets one span per resumption, so the
        consumer's work between items is not charged to the layer.
        """
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                generator = fn(*args, **kwargs)
                while True:
                    opened = self._open(name)
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, opened)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, opened)

        return traced

    def _wrap_cache_get(self, tier: str, fn: Callable) -> Callable:
        traced = self.wrap("runner.cache.get", fn)
        counts = self.cache_lookups.setdefault(tier, [0, 0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            value = traced(*args, **kwargs)
            with self._lock:
                counts[0 if value is not None else 1] += 1
            return value

        return counted

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point.  Call after every ``repro`` module the
        run needs is imported, so rebinding by identity reaches them."""
        for layer, module_name, attr in LAYER_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, method, self.wrap(layer, owner.__dict__[method]))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(layer, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, name, wrapped)
        from repro.runner.cache import ArtifactCache

        for tier in CACHE_TIERS:
            get, put = f"get_{tier}", f"put_{tier}"
            self._patch(
                ArtifactCache, get,
                self._wrap_cache_get(tier, ArtifactCache.__dict__[get]),
            )
            self._patch(
                ArtifactCache, put,
                self.wrap("runner.cache.put", ArtifactCache.__dict__[put]),
            )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children can overlap one another (a parent that fans out to
    threads), so their intervals are merged first, and clipped to the
    parent's own interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None:
            children.setdefault(parent.span_id, []).append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return {
        span.span_id: (span.end - span.start)
        - _union_length(children.get(span.span_id, []))
        for span in spans
    }


def layer_of(name: str) -> str:
    """The reporting layer of a span name (cache get/put roll up)."""
    return "runner.cache" if name.startswith("runner.cache.") else name


def summarize(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer ``calls`` and ``self_s``, cache get/put self time, and
    ``trace.unattributed_s``: the part of ``wall_s`` during which no
    span was open on any thread."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    out["runner.cache.get.self_s"] = 0.0
    out["runner.cache.put.self_s"] = 0.0
    for span in spans:
        layer = layer_of(span.name)
        out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + selfs[span.span_id]
        if layer != span.name:
            out[f"{span.name}.self_s"] += selfs[span.span_id]
    top = [(s.start, s.end) for s in spans if s.parent is None]
    out["trace.unattributed_s"] = wall_s - _union_length(top)
    return out


def cumulative(spans: list[Span], layer: str) -> float:
    """Wall time during which at least one ``layer`` span was open."""
    return _union_length([(s.start, s.end) for s in spans if layer_of(s.name) == layer])
