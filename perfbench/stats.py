"""Measurement helpers: percentiles, open-loop accounting, failure counting."""

from __future__ import annotations

import math
import statistics
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: percentiles the tail rule may report, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10
#: percentile of the bounded timings: the machine's slow spells last
#: seconds and can cover more than half a run, so a median moves with them
FAST_PERCENTILE = 10.0


def _rank(pct: float, count: int) -> int:
    """1-based nearest rank of ``pct`` among ``count`` sorted samples."""
    return max(1, math.ceil(round(pct / 100.0 * count, 9)))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (``pct`` in (0, 100])."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(pct, len(samples)) - 1]


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(pct, value, sample_count)``, or ``None`` when even the
    median has fewer than ten samples above it (fewer than 20 samples).
    """
    count = len(samples)
    for pct in TAIL_PERCENTILES:
        if count - _rank(pct, count) >= MIN_BEYOND:
            return pct, percentile(samples, pct), count
    return None


def fast(samples: Sequence[float]) -> float:
    """The lower decile of ``samples``: an operation's cost when the machine
    does not slow it."""
    return percentile(samples, FAST_PERCENTILE)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


@dataclass
class OpenLoop:
    """A fixed-rate request schedule and its latency/lateness accounting.

    Request ``k`` is due at ``start + k / rate`` whatever happened to the
    requests before it.  Latency runs from the due time to completion, so
    a stall is charged to every request queued behind it; lateness is how
    far past its due time a request started while its worker was idle
    (the generator's own delay, not queueing).
    """

    rate: float
    start: float
    latencies: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)

    def due(self, index: int) -> float:
        return self.start + index / self.rate

    def count_until(self, end: float) -> int:
        """How many requests fall due in ``[start, end)``."""
        return max(0, math.ceil((end - self.start) * self.rate - 1e-9))

    def record(self, due: float, picked: float, began: float, done: float) -> None:
        """Account one request: ``picked`` is when a worker took it up."""
        self.latencies.append(done - due)
        if picked <= due:
            self.lateness.append(max(0.0, began - due))

    def keeps_up(self, limit: float, backlog: int, workers: int) -> bool:
        """Tail latency under ``limit`` and no queue left beyond the workers."""
        found = tail(self.latencies)
        value = found[1] if found else max(self.latencies, default=0.0)
        return value < limit and backlog <= workers


@dataclass
class Tally:
    """Attempted and failed operations; a failure is any exception or mismatch.

    Shared by the request workers, so every update holds a lock.
    """

    attempted: int = 0
    failed: int = 0
    errors: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def run(self, fn: Callable[[], T]) -> Optional[T]:
        """Call ``fn``; an exception counts as a failure and yields ``None``."""
        with self._lock:
            self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # every failure mode counts, none may stop the run
            self.fail(type(exc).__name__)
            return None

    def check(self, ok: bool, what: str) -> bool:
        """Judge the answer of an operation already counted by :meth:`run`.

        A mismatch turns that operation into a failure; it is not a new
        attempt, so ``failed`` never exceeds ``attempted``.
        """
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        with self._lock:
            self.failed += 1
            self.errors[what] = self.errors.get(what, 0) + 1

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
