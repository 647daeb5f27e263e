"""DELTA-BATCH — delta shipping and the monitored incremental round.

Two series on the DeltaBatch update path, the one way a stored row
changes after the bulk load:

1. **Shipping cost** (``test_delta_shipping_cost``): bringing a file-backed
   SQLite copy up to date after a fixed update batch with one coalesced
   ``apply_delta_batch`` round trip — executemany per op kind, a single
   transaction, one commit.

2. **Incremental detection round** (``test_incremental_round``): a
   monitored update batch plus the resulting violation report, the
   incremental detector maintaining its Python group state while the
   batch ships to the SQLite copy.  With timings on, the median round
   joins the trajectory entry.

``test_incremental_detector_agrees_with_oracle`` is the guard-rail: the
monitored round ships its batch without a bulk re-load, and its report
equals a fresh bulk-loaded SQL detection.

Set ``BENCH_SMOKE=1`` to run the smallest size only (the CI smoke mode).
"""

import os

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
#: round timings, folded into the trajectory entry the parity test emits
#: (pytest runs the file's tests in definition order)
_ROUND_ROWS = []


def _update_batch(relation):
    """A fixed batch of idempotent per-tid cell updates."""
    tids = relation.tids()[:BATCH]
    return [(tid, {"STR": f"Delta Street {tid}"}) for tid in tids]


def _ship_delta_batch(backend, batch):
    delta = DeltaBatch("customer")
    for tid, changes in batch:
        delta.record_update(tid, changes)
    backend.apply_delta_batch("customer", delta)


@pytest.mark.parametrize("size", SIZES)
def test_delta_shipping_cost(benchmark, tmp_path, size):
    """Wall time of shipping one update batch to a file-backed SQLite copy."""
    relation = _WORKLOADS[size].copy()
    backend = SqliteBackend(path=str(tmp_path / f"ship_{size}.db"))
    backend.add_relation(relation)
    batch = _update_batch(relation)

    benchmark(_ship_delta_batch, backend, batch)
    benchmark.extra_info["rows"] = size
    benchmark.extra_info["updates"] = BATCH
    benchmark.extra_info["commits"] = 1
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
        oracle = ErrorDetector(oracle_backend).detect(
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
    emit_bench_json("DELTA-BATCH", _ROUND_ROWS + rows)
