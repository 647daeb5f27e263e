"""DET-INCR — incremental detection vs full re-detection under updates.

Companion experiment of [3]: incremental detection cost is proportional to
the update batch size, so it beats re-running batch detection for small
batches and loses its edge as the batch approaches the relation size.  The
benchmark reports both wall time and the ``tuples_examined`` work counter.
"""

import pytest

from bench_utils import emit_bench_json, make_dirty_customers, make_database, report_series
from repro.datasets import paper_cfds
from repro.detection.detector import ErrorDetector
from repro.detection.incremental import IncrementalDetector

RELATION_SIZE = 800


def apply_updates(detector, updates):
    for tid, changes in updates:
        detector.update(tid, changes)
    return detector.report()


def make_updates(relation, count, seed=0):
    tids = relation.tids()[:count]
    return [(tid, {"CITY": f"CITY{seed}_{index}"}) for index, tid in enumerate(tids)]


@pytest.mark.parametrize("batch_size", [1, 10, 50, 200])
def test_incremental_detection_vs_batch_size(benchmark, batch_size):
    """Incremental maintenance cost grows with the update batch, not the table."""
    _clean, noise = make_dirty_customers(RELATION_SIZE, rate=0.02, seed=7)
    database = make_database(noise.dirty.copy())
    detector = IncrementalDetector(database, "customer", paper_cfds())
    detector.reset_cost_counter()
    updates = make_updates(database.relation("customer"), batch_size)

    def run():
        return apply_updates(detector, updates)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["batch_size"] = batch_size
    benchmark.extra_info["tuples_examined"] = detector.tuples_examined
    benchmark.extra_info["violations"] = report.total_violations()
    assert report.tuple_count == RELATION_SIZE


def test_full_redetection_baseline(benchmark):
    """The batch-detection baseline the incremental numbers are compared to."""
    _clean, noise = make_dirty_customers(RELATION_SIZE, rate=0.02, seed=7)
    database = make_database(noise.dirty)
    detector = ErrorDetector(database)
    report = benchmark(detector.detect, "customer", paper_cfds())
    benchmark.extra_info["size"] = RELATION_SIZE
    benchmark.extra_info["violations"] = report.total_violations()


def test_incremental_work_is_local():
    """Work-counter comparison (the crossover shape), independent of timers."""
    _clean, noise = make_dirty_customers(RELATION_SIZE, rate=0.02, seed=7)
    database = make_database(noise.dirty.copy())
    detector = IncrementalDetector(database, "customer", paper_cfds())
    initial_cost = detector.tuples_examined  # cost of one full pass
    rows = []
    for batch_size in (1, 10, 50, 200, 800):
        detector.reset_cost_counter()
        for tid, changes in make_updates(database.relation("customer"), batch_size, seed=batch_size):
            detector.update(tid, changes)
        rows.append(
            {
                "batch_size": batch_size,
                "incremental_examinations": detector.tuples_examined,
                "full_redetection_examinations": initial_cost,
                "incremental_wins": detector.tuples_examined < initial_cost,
            }
        )
    report_series("DET-INCR incremental vs batch work", rows)
    emit_bench_json("DET-INCR", rows)
    assert rows[0]["incremental_wins"]
    assert rows[0]["incremental_examinations"] < rows[-1]["incremental_examinations"]
