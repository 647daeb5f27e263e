"""DELTA-BATCH — batched-transaction delta shipping and incremental detection.

Two series, both on the unified DeltaBatch update path:

1. **Shipping cost** (``test_delta_shipping_cost``): bringing a file-backed
   SQLite copy up to date after a fixed update batch, either the
   pre-DeltaBatch way — one single-statement op *and one commit* per update
   (``per_statement``) — or as one coalesced ``apply_delta_batch`` round
   trip: executemany per op kind, a single transaction, one commit
   (``delta_batch``).  The per-statement series pays one WAL append per
   update; the batch pays one for the whole changeset, so the gap grows
   with the batch, not the relation.

2. **Incremental detection round** (``test_incremental_round``): a
   monitored update batch plus the resulting violation report, the
   incremental detector maintaining its Python group state while the
   batch ships to the SQLite copy.  With timings on, the median round
   joins the trajectory entry.

``test_batched_shipping_beats_per_statement`` is the guard-rail: at the
largest configured size the batched transaction must beat per-statement
shipping outright, and both protocols must leave bit-identical backend
copies.  ``test_incremental_detector_agrees_with_oracle`` pins the
monitored report to a fresh bulk-loaded SQL detection.

Set ``BENCH_SMOKE=1`` to run the smallest size only (the CI smoke mode).
"""

import os
import time

import pytest

from bench_utils import emit_bench_json, make_dirty_customers, report_series
from repro import Semandaq, SemandaqConfig
from repro.backends import DeltaBatch, SqliteBackend
from repro.detection.detector import ErrorDetector
from repro.monitor.updates import Update

SIZES = [600] if os.environ.get("BENCH_SMOKE") else [600, 2400, 9600]
#: updates per shipped batch
BATCH = 96
_CFDS = None  # created lazily; paper_cfds() validates against the schema


def _cfds():
    global _CFDS
    if _CFDS is None:
        from repro.datasets import paper_cfds

        _CFDS = paper_cfds()
    return _CFDS


_WORKLOADS = {
    size: make_dirty_customers(size, rate=0.04, seed=411 + size)[1].dirty
    for size in SIZES
}
#: guard-test and round timings, folded into the trajectory entry the
#: parity test emits (pytest runs the file's tests in definition order)
_GUARD_ROWS = []
_ROUND_ROWS = []


def _update_batch(relation):
    """A fixed batch of idempotent per-tid cell updates."""
    tids = relation.tids()[:BATCH]
    return [(tid, {"STR": f"Delta Street {tid}"}) for tid in tids]


def _ship_per_statement(backend, batch):
    for tid, changes in batch:
        backend.update_row("customer", tid, changes)


def _ship_delta_batch(backend, batch):
    delta = DeltaBatch("customer")
    for tid, changes in batch:
        delta.record_update(tid, changes)
    backend.apply_delta_batch("customer", delta)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("mode", ["per_statement", "delta_batch"])
def test_delta_shipping_cost(benchmark, tmp_path, mode, size):
    """Wall time of shipping one update batch to a file-backed SQLite copy."""
    relation = _WORKLOADS[size].copy()
    backend = SqliteBackend(path=str(tmp_path / f"ship_{mode}_{size}.db"))
    backend.add_relation(relation)
    batch = _update_batch(relation)
    ship = _ship_per_statement if mode == "per_statement" else _ship_delta_batch

    benchmark(ship, backend, batch)
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["rows"] = size
    benchmark.extra_info["updates"] = BATCH
    benchmark.extra_info["commits"] = BATCH if mode == "per_statement" else 1
    backend.close()


@pytest.mark.parametrize("size", SIZES)
def test_incremental_round(benchmark, size):
    """Wall time of one monitored update batch plus the refreshed report."""
    system = Semandaq(config=SemandaqConfig(backend="sqlite"))
    system.register_relation(_WORKLOADS[size].copy())
    system.add_cfds(_cfds())
    monitor = system.monitor("customer")
    relation = system.database.relation("customer")
    batch = _update_batch(relation)
    toggle = [False]

    def round_trip():
        # alternate between two value sets so every round really changes cells
        suffix = " alt" if toggle[0] else ""
        toggle[0] = not toggle[0]
        monitor.apply_batch(
            [
                Update.modify(tid, {attr: value + suffix for attr, value in changes.items()})
                for tid, changes in batch
            ]
        )
        return monitor.current_report()

    benchmark(round_trip)
    benchmark.extra_info["rows"] = size
    benchmark.extra_info["updates"] = BATCH
    if benchmark.stats is not None:  # None under --benchmark-disable
        _ROUND_ROWS.append(
            {
                "rows": size,
                "updates": BATCH,
                "round_median_ms": round(benchmark.stats.stats.median * 1e3, 3),
            }
        )
    system.close()


def _best_of(runs, fn, *args):
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_batched_shipping_beats_per_statement(tmp_path):
    """Guard-rail: one transaction per batch must beat one commit per update,
    and both shipping protocols must produce identical backend copies."""
    size = max(SIZES)
    relation = _WORKLOADS[size].copy()
    backends = {}
    for mode in ("per_statement", "delta_batch"):
        backend = SqliteBackend(path=str(tmp_path / f"guard_{mode}.db"))
        backend.add_relation(relation.copy())
        backends[mode] = backend
    batch = _update_batch(relation)

    per_statement = _best_of(5, _ship_per_statement, backends["per_statement"], batch)
    batched = _best_of(5, _ship_delta_batch, backends["delta_batch"], batch)

    # identical end states, whichever protocol shipped the updates
    assert list(backends["per_statement"].iter_rows("customer")) == list(
        backends["delta_batch"].iter_rows("customer")
    )
    for backend in backends.values():
        backend.close()
    guard_rows = [
        {
            "rows": size,
            "updates": BATCH,
            "per_statement_ms": round(per_statement * 1e3, 3),
            "delta_batch_ms": round(batched * 1e3, 3),
            "speedup": round(per_statement / batched, 1),
        }
    ]
    _GUARD_ROWS[:] = guard_rows
    report_series("DELTA-BATCH guard", guard_rows)
    assert batched < per_statement, (
        f"batched transaction ({batched * 1e3:.2f} ms) must beat "
        f"per-statement shipping ({per_statement * 1e3:.2f} ms)"
    )


def test_incremental_detector_agrees_with_oracle():
    """Guard-rail: the monitored report equals what a fresh bulk-loaded SQL
    detector reports after the same monitored batch."""
    rows = []
    for size in SIZES:
        system = Semandaq(config=SemandaqConfig(backend="sqlite"))
        system.register_relation(_WORKLOADS[size].copy())
        system.add_cfds(_cfds())
        relation = system.database.relation("customer")
        template = relation.get(relation.tids()[0])
        monitor = system.monitor("customer")
        monitor.apply_batch(
            [
                Update.insert(dict(template, STR="A Brand New Street")),
                Update.modify(relation.tids()[1], {"CNT": "Narnia"}),
                Update.delete(relation.tids()[2]),
            ]
        )
        assert system.full_sync_count == 1  # registration only
        report = monitor.current_report()

        oracle_backend = SqliteBackend()
        oracle_backend.add_relation(system.database.relation("customer"))
        oracle = ErrorDetector(oracle_backend, use_sql=True).detect(
            "customer", system.constraints.cfds("customer")
        )
        oracle_backend.close()
        assert report.vio() == oracle.vio()
        assert report.dirty_tids() == oracle.dirty_tids()
        summary = monitor.summary()
        rows.append(
            {
                "rows": size,
                "violations": report.total_violations(),
                "batches_shipped": summary["batches_shipped"],
                "tuples_examined": summary["tuples_examined"],
            }
        )
        system.close()
    report_series("DELTA-BATCH parity", rows)
    emit_bench_json("DELTA-BATCH", _GUARD_ROWS + _ROUND_ROWS + rows)
