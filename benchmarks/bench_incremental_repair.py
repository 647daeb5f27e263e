"""REP-INCR — incremental repair (IncRepair) vs full re-repair under updates.

Companion experiment of [8]: when a cleansed database receives a batch of
updates, repairing only the violations that involve the updated tuples is
much cheaper than re-repairing the whole relation, and it never touches
previously cleansed data.

``IncrementalRepairer`` plans over a ``ScopedRepairSource``: the updated
tuples plus the members of the LHS groups they can break, found through
the relation's maintained hash indexes.  The summary times a 10-row batch
at 600, 2,400 and 9,600 rows against a relation whose earlier batch was
already repaired and applied (so the indexes are built, as under a data
monitor), next to a full re-repair of the same relation.  Each row records
the planner's rounds, the working-set rows and the residual violations;
the guard-rail asserts a zero residual and the same changes as the
restricted full-relation oracle at every size.
Set ``BENCH_SMOKE=1`` to run the smallest size only (the CI smoke mode).
"""

import os

import pytest

from bench_utils import emit_bench_json, report_series, timed
from repro.datasets import generate_customers, paper_cfds
from repro.repair.incremental import IncrementalRepairer
from repro.repair.repairer import BatchRepairer

RELATION_SIZE = 600
SIZES = [600] if os.environ.get("BENCH_SMOKE") else [600, 2400, 9600]
#: rows per update batch in the sized summary
BATCH = 10


def corrupted_batch(relation, count, offset=0):
    """New rows cloned from existing UK rows, each with a conflicting street.

    UK rows are used so every inserted row violates phi2 ([CNT='UK', ZIP] ->
    [STR]) against its clone — the update batch is guaranteed to need repair.
    ``offset`` picks later UK rows, so successive batches hit other groups.
    """
    uk_tids = [tid for tid, row in relation.rows() if row.get("CNT") == "UK"]
    rows = []
    for index in range(offset, offset + count):
        row = dict(relation.get(uk_tids[index % len(uk_tids)]))
        row["STR"] = f"Wrong Street {index}"
        rows.append(row)
    return rows


def apply_changes(relation, repair):
    """Write a repair's cell changes into ``relation``."""
    for change in repair.changes:
        relation.update(change.tid, {change.attribute: change.new_value})


def primed_relation(size):
    """A clean relation whose earlier 10-row batch was repaired and applied."""
    relation = generate_customers(size, seed=55)
    _tids, repair = IncrementalRepairer().insert_and_repair(
        relation, paper_cfds(), corrupted_batch(relation, BATCH)
    )
    apply_changes(relation, repair)
    return relation


@pytest.mark.parametrize("batch_size", [1, 10, 50])
def test_incremental_repair_vs_batch_size(benchmark, batch_size):
    """IncRepair cost grows with the update batch, not with the relation."""
    cfds = paper_cfds()

    def run():
        relation = generate_customers(RELATION_SIZE, seed=55)
        batch = corrupted_batch(relation, batch_size)
        repairer = IncrementalRepairer()
        new_tids, repair = repairer.insert_and_repair(relation, cfds, batch)
        repairer.verify_untouched(repair, protected_tids=set(relation.tids()) - set(new_tids))
        return repair

    repair = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["batch_size"] = batch_size
    benchmark.extra_info["cells_changed"] = len(repair.changes)
    assert repair.changed_tids() != set() or batch_size == 0


def test_full_rerepair_baseline(benchmark):
    """The full-repair baseline IncRepair is compared against (50-row batch)."""
    cfds = paper_cfds()

    def run():
        relation = generate_customers(RELATION_SIZE, seed=55)
        for row in corrupted_batch(relation, 50):
            relation.insert(row)
        return BatchRepairer().repair(relation, cfds)

    repair = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["cells_changed"] = len(repair.changes)
    assert len(repair.changes) > 0


def _change_keys(repair):
    return [
        (change.tid, change.attribute, change.old_value, change.new_value, change.cost)
        for change in repair.changes
    ]


def test_incremental_repair_bench_json():
    """Timed IncRepair-vs-full summary (10-row batch) per size, persisted.

    Guard-rail: zero residual and the restricted full-relation oracle's
    changes at every size.
    """
    cfds = paper_cfds()
    rows = []
    for size in SIZES:
        relation = primed_relation(size)
        new_tids = [
            relation.insert(row)
            for row in corrupted_batch(relation, BATCH, offset=BATCH)
        ]
        incremental_ms = full_ms = None
        for _ in range(3):  # best-of-3: neither call mutates the relation
            incremental, ms = timed(
                IncrementalRepairer().repair_updates, relation, cfds, new_tids
            )
            incremental_ms = ms if incremental_ms is None else min(incremental_ms, ms)
            full, ms = timed(BatchRepairer().repair, relation, cfds)
            full_ms = ms if full_ms is None else min(full_ms, ms)
        oracle = BatchRepairer(restrict_to_tids=new_tids).repair(relation, cfds)
        assert _change_keys(incremental) == _change_keys(oracle)
        assert incremental.residual_violations == 0
        assert incremental.changed_tids() <= set(new_tids)
        rows.append(
            {
                "rows": size,
                "batch_size": BATCH,
                "incremental_ms": round(incremental_ms, 3),
                "full_rerepair_ms": round(full_ms, 3),
                "rounds": incremental.iterations,
                "working_rows": len(incremental.original),
                "residual": incremental.residual_violations,
                "cells_changed": len(incremental.changes),
            }
        )
    report_series("REP-INCR summary", rows)
    emit_bench_json("REP-INCR", rows)
