"""THROUGHPUT — concurrent detect serving over the reader-connection pool.

One scenario, the serving contract of the concurrent layer: N reader
threads run full ``detect`` calls against a file-backed SQLite store
while a writer streams coalescing ``DeltaBatch`` updates at a **fixed
offered rate** it is required to absorb (a monitor cannot drop its
update stream).  Two configurations serve the identical load:

- ``pooled`` — the reader-connection pool: every detect snapshots a
  read-only WAL connection, the writer streams through its own
  connection untouched.
- ``single`` — the ``pool_size=0`` baseline: one connection, every read
  and write serialised through the writer's lock.

Raw read QPS alone would reward the baseline for *starving the writer*
(readers hog the shared connection's lock, the update stream silently
falls behind and every report goes stale), so the figure of merit is
**goodput**: detect QPS scaled by the fraction of the offered update
stream actually applied inside the measurement window::

    goodput = qps * min(1.0, batches_applied / batches_offered)

The writer toggles a fixed tid set between two complete states A and B,
one atomic batch per toggle, and every concurrent report must equal the
serial oracle of state A or of state B **exactly** — a torn snapshot
(mixed states) or any other divergence counts as a parity violation,
and the run demands zero.

``test_pooled_beats_single_connection`` is the guard-rail: at 4 readers
the pooled goodput must be at least 1.5x the single-connection
baseline's, with both writers' keep-up fractions reported.  The guard
is skipped in smoke mode (timing assertions on shared CI runners are
noise); the parity and pool-accounting assertions always run.

Set ``BENCH_SMOKE=1`` to run the reduced load (the CI smoke mode).
"""

import os
import threading
import time

from bench_utils import emit_bench_json, report_series
from repro.backends import DeltaBatch, SqliteBackend
from repro.datasets import generate_customers, inject_noise, paper_cfds
from repro.detection.detector import ErrorDetector

SMOKE = bool(os.environ.get("BENCH_SMOKE"))
#: relation size, toggled tids per batch, offered batches/second
SIZE = 600 if SMOKE else 2400
BATCH_ROWS = 100 if SMOKE else 200
OFFERED_RATE = 40.0 if SMOKE else 80.0
#: full detects each reader thread performs per trial
DETECTS_PER_READER = 3 if SMOKE else 24
READER_COUNTS = [1, 4] if SMOKE else [1, 2, 4, 8]
POOL_SIZE = 8

_CFDS = paper_cfds()
_BASE = inject_noise(
    generate_customers(SIZE, seed=7),
    rate=0.03,
    seed=8,
    attributes=["CNT", "CITY", "STR", "CC"],
).dirty
#: series rows collected by the trial test, emitted by the guard test
#: (pytest runs the file's tests in definition order)
_ROWS = []
_POOL_METRICS = {}


def _toggle_batch(state):
    """The atomic batch writing every toggled tid to ``state`` (A or B).

    CNT sits on both sides of the paper's CFD set (RHS of phi3/phi4, LHS
    of phi1/phi2), so the two states produce structurally different
    reports — state B additionally breaks phi4's constant patterns for
    every toggled tid with a 44/01 country code.
    """
    value = "UK" if state == "A" else "Albion"
    batch = DeltaBatch("customer")
    for tid in range(BATCH_ROWS):
        batch.record_update(tid, {"CNT": value})
    return batch


def _canonical(report):
    """Order-independent identity of a violation report."""
    return (
        report.tuple_count,
        tuple(
            sorted(
                (v.cfd_id, v.kind, v.tids, v.rhs_attribute, v.pattern_index, v.lhs_values)
                for v in report.violations
            )
        ),
    )


def _oracles(tmp_path):
    """Serial single-thread reports for complete states A and B."""
    oracles = {}
    for state in ("A", "B"):
        backend = SqliteBackend(path=str(tmp_path / f"oracle_{state}.db"))
        backend.add_relation(_BASE.copy())
        backend.apply_delta_batch("customer", _toggle_batch(state))
        report = ErrorDetector(backend).detect("customer", _CFDS)
        oracles[state] = _canonical(report)
        backend.close()
    assert oracles["A"] != oracles["B"], "toggle must change the report"
    return oracles


def _trial(tmp_path, label, pool_size, readers, oracles):
    """One serving run: QPS, writer keep-up, parity failures, pool stats."""
    backend = SqliteBackend(
        path=str(tmp_path / f"serve_{label}_{readers}.db"), pool_size=pool_size
    )
    backend.add_relation(_BASE.copy())
    backend.apply_delta_batch("customer", _toggle_batch("A"))
    detector = ErrorDetector(backend)
    detector.detect("customer", _CFDS)  # warm plans and indexes

    stop = threading.Event()
    applied = [0]
    started = [0.0]
    # built once so the stream's cost is the apply itself, not re-building
    # the same change set on every toggle
    batches = (_toggle_batch("A"), _toggle_batch("B"))

    def writer():
        state = 0
        while not stop.is_set():
            # paced schedule: batch k is due at start + k/rate; when the
            # connection was held by readers the writer applies back to
            # back until it catches up — offered load is never reduced
            due = started[0] + applied[0] / OFFERED_RATE
            delay = due - time.perf_counter()
            if delay > 0 and stop.wait(delay):
                return
            backend.apply_delta_batch("customer", batches[state])
            applied[0] += 1
            state ^= 1

    valid = set(oracles.values())
    parity_failures = [0]
    barrier = threading.Barrier(readers + 1)

    def reader():
        barrier.wait()
        for _ in range(DETECTS_PER_READER):
            report = detector.detect("customer", _CFDS)
            if _canonical(report) not in valid:
                parity_failures[0] += 1

    writer_thread = threading.Thread(target=writer)
    threads = [threading.Thread(target=reader) for _ in range(readers)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started[0] = time.perf_counter()
    writer_thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started[0]
    stop.set()
    writer_thread.join()

    qps = readers * DETECTS_PER_READER / elapsed
    keepup = min(1.0, applied[0] / (OFFERED_RATE * elapsed))
    stats = backend.pool_stats()
    backend.close()
    return {
        "mode": label,
        "readers": readers,
        "qps": round(qps, 1),
        "write_keepup": round(keepup, 3),
        "goodput": round(qps * keepup, 1),
        "parity_failures": parity_failures[0],
    }, stats


def test_concurrent_serving_parity_and_qps(tmp_path):
    """Serve the fixed write load at every reader count, both configs.

    Every concurrent report must equal the state-A or state-B oracle
    exactly; the pooled runs must also account every connection hand-out
    in the pool counters.
    """
    oracles = _oracles(tmp_path)
    for readers in READER_COUNTS:
        pooled, stats = _trial(tmp_path, "pooled", POOL_SIZE, readers, oracles)
        single, _ = _trial(tmp_path, "single", 0, readers, oracles)
        _ROWS.extend([pooled, single])
        assert pooled["parity_failures"] == 0, pooled
        assert single["parity_failures"] == 0, single
        assert stats["pool.acquired"] >= readers * DETECTS_PER_READER
        assert 1 <= stats["pool.open"] <= POOL_SIZE
        _POOL_METRICS.update(
            {key: value for key, value in stats.items() if key.startswith("pool.")}
        )
    report_series("THROUGHPUT", _ROWS)


def test_pooled_beats_single_connection():
    """Guard-rail: pooled goodput at 4 readers >= 1.5x the baseline's.

    The baseline either keeps up with the update stream (and its readers
    crawl behind the shared lock) or keeps its read QPS by dropping the
    stream — either way its goodput collapses; the pool absorbs the same
    load with read capacity to spare.
    """
    by_key = {(row["mode"], row["readers"]): row for row in _ROWS}
    pooled = by_key[("pooled", 4)] if not SMOKE else by_key[("pooled", READER_COUNTS[-1])]
    single = by_key[("single", 4)] if not SMOKE else by_key[("single", READER_COUNTS[-1])]
    assert pooled["write_keepup"] >= 0.9, (
        f"pooled config must absorb the offered stream: {pooled}"
    )
    speedup = pooled["goodput"] / single["goodput"]
    metrics = dict(
        _POOL_METRICS,
        speedup_at_4_readers=round(speedup, 2),
        offered_batches_per_s=OFFERED_RATE,
        batch_rows=BATCH_ROWS,
    )
    emit_bench_json("THROUGHPUT", _ROWS, metrics=metrics)
    if SMOKE:
        return  # timing guard is meaningless on shared smoke runners
    assert speedup >= 1.5, (
        f"pooled goodput {pooled['goodput']} must be >= 1.5x the "
        f"single-connection baseline {single['goodput']} (got {speedup:.2f}x)"
    )
