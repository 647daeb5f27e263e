"""INCR-SYNC — delta-batch shipping vs whole-relation re-sync.

Before the backend-resident maintenance work, every ``detect()`` on a
monitored relation re-loaded the whole relation into the storage backend
(``add_relation(replace=True)``) so the pushed-down queries could see the
monitor's updates.  The monitor now ships each applied update batch down
as one :class:`~repro.backends.delta.DeltaBatch` instead, so the cost of
keeping the backend current is proportional to the update batch, not the
relation.

This benchmark times both sides of that trade on the SQLite backend: a full
bulk re-load of the relation vs shipping a fixed-size batch of per-tid cell
updates as one ``apply_delta_batch`` call.  The full-resync series grows
linearly with the relation; the delta series stays flat, so the gap widens
with size — that widening gap is the payoff of backend-resident
incremental maintenance.

Set ``BENCH_SMOKE=1`` to run the smallest size only (the CI smoke mode).
"""

import os

import pytest

from bench_utils import emit_bench_json, make_dirty_customers, report_series, timed
from repro import Semandaq, SemandaqConfig
from repro.backends import DeltaBatch, SqliteBackend
from repro.datasets import paper_cfds
from repro.detection.detector import ErrorDetector
from repro.monitor.updates import Update

SIZES = [600] if os.environ.get("BENCH_SMOKE") else [600, 2400, 9600]
#: number of per-tid cell updates shipped per round (the update batch)
BATCH = 24
_CFDS = paper_cfds()
_WORKLOADS = {
    size: make_dirty_customers(size, rate=0.04, seed=307 + size)[1].dirty
    for size in SIZES
}


def _delta_batch(relation):
    """A fixed batch of idempotent per-tid cell updates."""
    tids = relation.tids()[:BATCH]
    return [(tid, {"STR": f"Delta Street {tid}"}) for tid in tids]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("mode", ["full_resync", "delta"])
def test_backend_sync_cost(benchmark, mode, size):
    """Wall time of bringing the backend up to date after an update batch."""
    relation = _WORKLOADS[size].copy()
    backend = SqliteBackend()
    backend.add_relation(relation)

    if mode == "full_resync":
        # the pre-delta protocol: reload the whole relation
        def sync():
            backend.add_relation(relation, replace=True)

    else:
        batch = DeltaBatch("customer")
        for tid, changes in _delta_batch(relation):
            batch.record_update(tid, changes)

        def sync():
            backend.apply_delta_batch("customer", batch)

    benchmark(sync)
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["rows"] = size
    benchmark.extra_info["updates"] = BATCH
    backend.close()


def test_delta_synced_detection_matches_full_resync():
    """Guard-rail: a monitored, delta-synced system reports exactly what a
    freshly bulk-loaded detector reports, with a single bulk load ever."""
    rows = []
    for size in SIZES:
        system = Semandaq(config=SemandaqConfig(backend="sqlite"))
        system.register_relation(_WORKLOADS[size].copy())
        system.add_cfds(_CFDS)
        relation = system.database.relation("customer")
        template = relation.get(relation.tids()[0])
        monitor = system.monitor("customer")
        _, apply_ms = timed(
            monitor.apply_batch,
            [
                Update.insert(dict(template, STR="A Brand New Street")),
                Update.modify(relation.tids()[1], {"CNT": "Narnia"}),
                Update.delete(relation.tids()[2]),
            ],
        )
        delta_report, detect_ms = timed(system.detect, "customer")
        assert system.full_sync_count == 1  # registration only

        oracle_backend = SqliteBackend()
        oracle_backend.add_relation(system.database.relation("customer"))
        oracle = ErrorDetector(oracle_backend).detect(
            "customer", system.constraints.cfds("customer")
        )
        oracle_backend.close()
        assert delta_report.vio() == oracle.vio()
        assert delta_report.dirty_tids() == oracle.dirty_tids()
        rows.append(
            {
                "rows": size,
                "violations": delta_report.total_violations(),
                "full_syncs": system.full_sync_count,
                "delta_statements": len(system.monitor("customer").log),
                "apply_batch_ms": round(apply_ms, 3),
                "detect_ms": round(detect_ms, 3),
            }
        )
        system.close()
    report_series("INCR-SYNC parity", rows)
    emit_bench_json("INCR-SYNC", rows)
