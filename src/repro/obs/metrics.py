"""Counters and histograms: the numeric half of the telemetry layer.

A :class:`MetricsRegistry` is a flat namespace of named :class:`Counter`
and :class:`Histogram` instruments, created on first use.  Names follow a
``family.detail`` convention — ``statement_ms.q_window``,
``plan_cache.hits``, ``delta.ops_shipped`` — so a snapshot groups
naturally when sorted.  Everything is plain Python on purpose: the
registry must import nowhere near the hot path's dependencies and cost
nothing when telemetry is disabled (callers guard on
:attr:`~repro.obs.telemetry.Telemetry.enabled` before touching it).

Snapshots are plain dicts with deterministically sorted keys, so two
identical workloads produce identical counter snapshots — a property the
telemetry test suite pins.

The instruments are shared across the serving layer's worker threads, so
every mutation (increment, observation, lazy creation) happens under one
module-level lock: ``value += amount`` is a read-modify-write that loses
increments under contention otherwise.  A single lock keeps the
uncontended cost to one atomic acquire — these are telemetry updates, not
hot-loop arithmetic — and the concurrency test suite pins "counter totals
under contention equal the single-thread sum" on it.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

#: guards every instrument mutation and registry map across threads
_METRICS_LOCK = threading.Lock()


class Counter:
    """A monotonically increasing integer metric (thread-safe)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        with _METRICS_LOCK:
            self.value += amount


class Histogram:
    """A streaming summary of observed values: count/total/min/max.

    Full bucketed histograms are overkill for the per-statement timings
    this layer records; count + total (hence mean) + extremes answer the
    "which statement kind dominates" question the benchmarks ask, in O(1)
    space.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation (thread-safe)."""
        with _METRICS_LOCK:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        """The average observed value (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict summary (rounded, JSON-ready)."""
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "mean": round(self.mean, 6),
            "min": None if self.min is None else round(self.min, 6),
            "max": None if self.max is None else round(self.max, 6),
        }


class MetricsRegistry:
    """A named collection of counters and histograms, created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created at zero if missing)."""
        counter = self._counters.get(name)
        if counter is None:
            with _METRICS_LOCK:
                counter = self._counters.get(name)
                if counter is None:
                    counter = self._counters[name] = Counter()
        return counter

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created empty if missing)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            with _METRICS_LOCK:
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram()
        return histogram

    def counter_value(self, name: str) -> int:
        """Current value of counter ``name`` (0 if it never incremented)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def reset(self) -> None:
        """Drop every instrument (a fresh registry)."""
        with _METRICS_LOCK:
            self._counters.clear()
            self._histograms.clear()

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view of every instrument, keys sorted."""
        with _METRICS_LOCK:
            return {
                "counters": {
                    name: self._counters[name].value
                    for name in sorted(self._counters)
                },
                "histograms": {
                    name: self._histograms[name].to_dict()
                    for name in sorted(self._histograms)
                },
            }
