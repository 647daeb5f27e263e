"""In-memory spans for the traced run, and the self-time arithmetic over them.

The traced run wraps the public entry points of each layer (see
``LAYER_ENTRY_POINTS``) with a recorder that keeps one :class:`Span` per
call: name, layer, start, end, parent span and request id.  Nothing is
written while the run measures; :meth:`Recorder.dump` writes the spans out
at the end.

A span's *self time* is its duration minus the union of its children's
intervals (clipped to the span), so overlapping children are not counted
twice.  The benchmark opens a root span (layer ``system``) around every
facade call it makes; the root's own self time is the facade wall time no
layer span covers, ``system.unattributed_ms``.  Self times partition each
root's duration, which :func:`check_partition` verifies.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT_LAYER = "system"

#: (module, class, methods, layer, span name, result counter)
#: The span name groups calls into the figures the per-layer metrics need;
#: a counter maps the call's result to a number kept on the span.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...], str, str, Optional[str]], ...] = (
    ("repro.backends.sqlite", "SqliteBackend",
     ("add_relation", "create_relation", "insert_many"), "backends", "load", None),
    ("repro.backends.sqlite", "SqliteBackend", ("execute",), "backends", "execute", "len"),
    ("repro.backends.sqlite", "SqliteBackend",
     ("apply_delta_batch",), "backends", "delta_batch", None),
    ("repro.backends.sqlite", "SqliteBackend",
     ("ensure_index", "drop_relation", "has_relation", "relation_names", "schema",
      "row_count", "get_row", "to_relation"), "backends", "other", None),
    ("repro.backends.pool", "SqliteReaderPool", ("acquire",), "backends.pool", "acquire", None),
    ("repro.detection.detector", "ErrorDetector", ("detect",), "detection", "detect",
     "violations"),
    ("repro.detection.detector", "ErrorDetector",
     ("detect_for_tuples",), "detection", "detect_for_tuples", "violations"),
    ("repro.detection.incremental", "IncrementalDetector",
     ("insert", "update", "delete"), "detection.incremental", "apply", None),
    ("repro.detection.incremental", "IncrementalDetector",
     ("report",), "detection.incremental", "report", None),
    ("repro.monitor.monitor", "DataMonitor", ("apply_batch",), "monitor", "apply_batch", None),
    ("repro.monitor.monitor", "DataMonitor",
     ("repair_affected",), "monitor", "repair_affected", None),
    ("repro.repair.repairer", "BatchRepairer",
     ("repair", "repair_with_source"), "repair", "plan", "iterations"),
    ("repro.repair.source", "BackendRepairSource",
     ("load", "column_frequencies", "begin_round", "note_change"), "repair", "source", None),
    ("repro.repair.incremental", "IncrementalRepairer",
     ("repair_updates",), "repair.incremental", "repair_updates", "iterations"),
    ("repro.sources.backend", "BackendTupleSource",
     ("row_count", "fetch_rows", "value_frequencies", "group_member_counts",
      "covering_member_tids", "majority_values", "pattern_group_freq",
      "applicable_count", "page"), "sources", "read", None),
    ("repro.audit.report", "DataAuditor", ("audit", "audit_source"), "audit", "audit", None),
    ("repro.explorer.navigation", "DataExplorer",
     ("list_cfds", "patterns_for", "lhs_matches", "rhs_values", "tuples_for",
      "explain_tuple"), "explorer", "navigate", None),
    ("repro.explorer.navigation", "DataExplorer",
     ("tuples_page",), "explorer", "page", "len"),
    ("repro.engine.relation", "Relation", ("copy",), "engine", "copy", None),
)

_COUNTERS: Dict[str, Callable[[Any], float]] = {
    "len": len,
    "violations": lambda report: len(report.violations),
    "iterations": lambda repair: repair.iterations,
}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request: Optional[int] = None
    value: float = 0.0

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.name}"

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from any thread; parents follow each thread's call stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_request = 0
        self._patches: List[Tuple[type, str, Any]] = []
        self.missing: List[str] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self) -> bool:
        """Whether this thread is inside a facade call (only those are traced)."""
        return bool(getattr(self._local, "stack", None))

    def open(self, name: str, layer: str) -> int:
        stack = self._stack()
        span = Span(
            name, layer, time.perf_counter(),
            parent=stack[-1] if stack else None,
            request=getattr(self._local, "request", None),
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, value: float = 0.0) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.value = value
        self._stack().pop()

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A facade call made by the benchmark: a new request with a root span."""
        with self._lock:
            self._next_request += 1
            self._local.request = self._next_request
        index = self.open(name, ROOT_LAYER)
        try:
            yield
        finally:
            self.close(index)
            self._local.request = None

    # -- wrapping layer entry points --------------------------------------------

    def install(self, entry_points=LAYER_ENTRY_POINTS) -> None:
        """Wrap every listed method; entry points the program lacks are noted."""
        for module_name, class_name, methods, layer, name, counter in entry_points:
            try:
                cls = getattr(importlib.import_module(module_name), class_name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{class_name}")
                continue
            for method in methods:
                original = cls.__dict__.get(method)
                if not callable(original):
                    self.missing.append(f"{class_name}.{method}")
                    continue
                setattr(cls, method, self._wrap(original, layer, name, _COUNTERS.get(counter)))
                self._patches.append((cls, method, original))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._patches):
            setattr(cls, method, original)
        self._patches.clear()

    def _wrap(self, fn, layer: str, name: str, counter):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active():
                return fn(*args, **kwargs)
            index = recorder.open(name, layer)
            value = 0.0
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    value = counter(result)
                return result
            finally:
                recorder.close(index, value)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([asdict(span) for span in self.spans], handle)


# -- arithmetic ----------------------------------------------------------------


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def children_of(spans: Sequence[Span]) -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    return children


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's (clipped) intervals."""
    children = children_of(spans)
    result = []
    for index, span in enumerate(spans):
        clipped = [
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(index, ())
        ]
        covered = union_length([(s, e) for s, e in clipped if e > s])
        result.append(span.duration - covered)
    return result


def root_of(spans: Sequence[Span], index: int) -> int:
    while spans[index].parent is not None:
        index = spans[index].parent
    return index


def outermost(spans: Sequence[Span], index: int) -> bool:
    """Whether no ancestor of the span has the same layer and name."""
    key = spans[index].key
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].key == key:
            return False
        parent = spans[parent].parent
    return True


def check_partition(spans: Sequence[Span], selfs: Sequence[float], tolerance: float = 1e-6) -> bool:
    """Self times of every tree sum to its root's duration, never more.

    Only trees under a root span are checked: a span opened outside any
    facade call (none should be) has no wall time to be measured against.
    """
    totals: Dict[int, float] = {}
    for index in range(len(spans)):
        root = root_of(spans, index)
        if spans[root].layer == ROOT_LAYER:
            totals[root] = totals.get(root, 0.0) + selfs[index]
    for root, parts in totals.items():
        wall = spans[root].duration
        if parts > wall + tolerance or parts < wall - tolerance * max(1.0, len(spans)):
            return False
    return True


def summarise(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per ``layer.name``: calls, total ms (outermost spans), self ms, value sum."""
    selfs = self_times(spans)
    summary: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = summary.setdefault(
            span.key, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "value": 0.0}
        )
        entry["calls"] += 1
        entry["self_ms"] += selfs[index] * 1000.0
        entry["value"] += span.value
        if outermost(spans, index):
            entry["total_ms"] += span.duration * 1000.0
    return summary


def value_under(spans: Sequence[Span], key: str, ancestor_layer: str, ancestor_name: Optional[str] = None) -> float:
    """Sum of ``value`` of spans ``key`` that run inside the given ancestor."""
    total = 0.0
    for span in spans:
        if span.key != key:
            continue
        parent = span.parent
        while parent is not None:
            ancestor = spans[parent]
            if ancestor.layer == ancestor_layer and (
                ancestor_name is None or ancestor.name == ancestor_name
            ):
                total += span.value
                break
            parent = ancestor.parent
    return total
