"""Span tracer: wraps layer entry points and aggregates spans in memory.

A span is one call through a wrapped entry point: its boundary name, its
start and end on the tracer's clock, the span that was open when it began
(the one that caused it), and the trace id current at the time — the
cache key of the spec being simulated.  Spans are not stored one by one;
each closes into per-boundary totals (calls, total seconds, self seconds),
a parent->child edge count, and per-trace-id root totals.  A span's self
time is its duration minus the durations of the spans it directly caused.

The wrappers are installed on the classes and modules before any
simulation object is built (bound methods cached at construction then
point at the wrapper) and removed by :meth:`Tracer.uninstall`.  In a
forked pool worker the tracer restarts from zero and writes its totals to
``spill_dir`` each time a root span closes; :func:`merge` folds those
files into the parent's snapshot.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path
from typing import Callable, Iterable, Optional

from perfbench.entry_points import ENTRY_POINTS, PRELOAD_MODULES, EntryPoint


class Tracer:
    """Per-boundary span aggregates, filled by installed wrappers."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        spill_dir: Optional[Path] = None,
    ) -> None:
        self.clock = clock
        self.spill_dir = spill_dir
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.hits: list[int] = []
        self.counts: list[int] = []
        #: (parent boundary index or -1 for a root, child index) -> calls
        self.edges: dict[tuple[int, int], int] = {}
        #: boundary name -> {sampled value: occurrences}
        self.histograms: dict[str, dict] = {}
        #: trace id -> [root spans, root seconds]
        self.traces: dict[str, list] = {}
        self.trace_id = ""
        self.missing: list[str] = []
        self.installed = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._in_worker = False
        self._active = False

    # ------------------------------------------------------------------
    def boundary(self, name: str) -> int:
        """Index of boundary ``name``, registering it on first use."""
        index = self._index.get(name)
        if index is None:
            index = len(self.names)
            self._index[name] = index
            self.names.append(name)
            for column in (self.calls, self.hits, self.counts):
                column.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return index

    def reset(self) -> None:
        """Zero every aggregate (keeps the registered boundaries)."""
        for index in range(len(self.names)):
            self.calls[index] = self.hits[index] = self.counts[index] = 0
            self.total[index] = self.self_time[index] = 0.0
        self.edges.clear()
        for histogram in self.histograms.values():
            histogram.clear()
        self.traces.clear()
        self._stack.clear()

    def wrap(self, function: Callable, entry: EntryPoint) -> Callable:
        """A wrapper that records one span per call of ``function``."""
        index = self.boundary(entry.name)
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time
        hits, counts, edges = self.hits, self.counts, self.edges
        clock = self.clock
        returns = entry.returns
        result_count = entry.result_count
        sample_self = entry.sample_self
        sample_return = entry.sample_return
        sets_trace_id = entry.sets_trace_id
        histogram = (
            self.histograms.setdefault(entry.name, {})
            if sample_self or sample_return
            else None
        )
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if sets_trace_id:
                tracer.trace_id = args[0].cache_key()
            if sample_self is not None:
                value = getattr(args[0], sample_self)()
                histogram[value] = histogram.get(value, 0) + 1
            parent = stack[-1] if stack else None
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[index] += 1
                total[index] += elapsed
                self_time[index] += elapsed - frame[0]
                edge = (parent[1] if parent is not None else -1, index)
                edges[edge] = edges.get(edge, 0) + 1
                if parent is not None:
                    parent[0] += elapsed
                else:
                    tracer._root_closed(elapsed)
            if returns == "true":
                if result:
                    hits[index] += 1
            elif returns == "not_none":
                if result is not None:
                    hits[index] += 1
            if result_count:
                counts[index] += int(result)
            if sample_return is not None:
                value = getattr(result, sample_return)
                histogram[value] = histogram.get(value, 0) + 1
            return result

        return wrapper

    def _root_closed(self, elapsed: float) -> None:
        totals = self.traces.get(self.trace_id)
        if totals is None:
            self.traces[self.trace_id] = [1, elapsed]
        else:
            totals[0] += 1
            totals[1] += elapsed
        if self._in_worker and self.spill_dir is not None:
            self._spill()

    def _spill(self) -> None:
        path = self.spill_dir / f"worker-{os.getpid()}.json"
        scratch = path.with_suffix(".tmp")
        scratch.write_text(json.dumps(self.snapshot()))
        os.replace(scratch, path)

    def _after_fork(self) -> None:
        if self._active:
            self.reset()
            self._in_worker = True

    # ------------------------------------------------------------------
    def install(self, entries: Iterable[EntryPoint] = ENTRY_POINTS) -> None:
        """Wrap every resolvable entry point; record the rest as missing."""
        for module_name in PRELOAD_MODULES:
            try:
                importlib.import_module(module_name)
            except ImportError:
                self.missing.append(module_name)
        for entry in entries:
            self.boundary(entry.name)
            targets = _resolve(entry)
            if not targets:
                self.missing.append(f"{entry.name} ({entry.target})")
                continue
            for owner, attribute, original in targets:
                setattr(owner, attribute, self.wrap(original, entry))
                self._patches.append((owner, attribute, original))
                self.installed += 1
        if not self._active:
            self._active = True
            os.register_at_fork(after_in_child=self._after_fork)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        self._active = False

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The aggregates as plain JSON-ready data."""
        return {
            "boundaries": {
                name: {
                    "calls": self.calls[index],
                    "total_s": self.total[index],
                    "self_s": self.self_time[index],
                    "hits": self.hits[index],
                    "count": self.counts[index],
                }
                for index, name in enumerate(self.names)
            },
            "edges": {
                f"{self.names[parent] if parent >= 0 else ''}>"
                f"{self.names[child]}": calls
                for (parent, child), calls in self.edges.items()
            },
            "histograms": {
                name: {repr(value): count for value, count in values.items()}
                for name, values in self.histograms.items()
            },
            "traces": {key: list(value) for key, value in self.traces.items()},
            "missing": list(self.missing),
            "installed": self.installed,
        }


def _resolve(entry: EntryPoint) -> list[tuple[object, str, object]]:
    """(owner, attribute, current value) triples to wrap for one entry."""
    module_name, _, path = entry.target.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError:
        return []
    *class_path, attribute = path.split(".")
    for name in class_path:
        owner = getattr(owner, name, None)
        if owner is None:
            return []
    if not callable(getattr(owner, attribute, None)):
        return []
    owners = [owner]
    if entry.subclasses and isinstance(owner, type):
        owners.extend(
            cls for cls in _subclasses(owner) if attribute in vars(cls)
        )
    return [(each, attribute, vars(each)[attribute]) for each in owners
            if attribute in vars(each)]


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


def merge(snapshots: Iterable[dict]) -> dict:
    """Sum several snapshots (the parent's and its workers')."""
    merged: dict = {
        "boundaries": {}, "edges": {}, "histograms": {}, "traces": {},
        "missing": [], "installed": 0,
    }
    for snap in snapshots:
        for name, row in snap["boundaries"].items():
            into = merged["boundaries"].setdefault(
                name,
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0,
                 "count": 0},
            )
            for field, value in row.items():
                into[field] += value
        for edge, calls in snap["edges"].items():
            merged["edges"][edge] = merged["edges"].get(edge, 0) + calls
        for name, values in snap["histograms"].items():
            into = merged["histograms"].setdefault(name, {})
            for value, count in values.items():
                into[value] = into.get(value, 0) + count
        for key, (spans, seconds) in snap["traces"].items():
            into = merged["traces"].setdefault(key, [0, 0.0])
            into[0] += spans
            into[1] += seconds
        for name in snap["missing"]:
            if name not in merged["missing"]:
                merged["missing"].append(name)
        merged["installed"] = max(merged["installed"], snap["installed"])
    return merged


def spilled(spill_dir: Path) -> list[dict]:
    """Snapshots that forked workers wrote to ``spill_dir``."""
    return [
        json.loads(path.read_text())
        for path in sorted(spill_dir.glob("worker-*.json"))
    ]
