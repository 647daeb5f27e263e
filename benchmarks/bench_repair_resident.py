"""REPAIR-RESIDENT — batch repair: ship-the-relation-back vs resident planning.

PR 7 splits the data cleanser into a pure planner over a
``RepairDataSource``.  The old protocol materialises the whole relation out
of the storage backend (``to_relation``) and answers every relational
sub-problem — violation collection, group membership, value frequencies —
by Python iteration over the shipped copy.  The resident source leaves the
relation in the backend: violations come from the pushed-down ``detect()``,
frequencies from one ``GROUP BY``/``COUNT`` aggregate per attribute, and
the planner's working set is *closed* on demand (a ``group_stats``
aggregate dismisses already-covered LHS groups by count; only the remainder
pay a sargable member enumeration plus a row fetch).

Two series on SQLite at 600/2400/9600 rows, same CFDs and noise for both:

* **``ship_back``** — ``to_relation()`` + the native full-relation
  repairer: the relation transfer and full-relation scans dominate and
  grow linearly with the data;
* **``resident``** — ``BackendRepairSource`` + ``repair_with_source``:
  only violating tuples, closure members and aggregate rows cross the
  backend boundary, so cost tracks the *dirty region*, not the relation.

The primary workload keeps the noise on CITY/STR — ZIP-keyed LHS groups
of ~3 tuples — so violations stay localised, the regime the pushdown is
built for.  The **blanket-group series** measures the opposite regime: CNT
noise under ``[CC] -> [CNT]`` turns whole countries into one multi-tuple
violation, dragging most of the relation into the working set.  There the
pure-resident source pays O(N / chunk) ``IN``-restricted fetches to ship
nearly everything anyway; the adaptive source
(``fetch_threshold=0.5``, the facade default) detects the regime and
switches to one keyset-paged full scan instead.

``test_resident_repairs_match_and_win`` is the guard-rail: change-for-change
parity at every size and an outright resident win at the largest size.
``test_blanket_groups_adaptive_fallback`` guards the pathological regime:
parity again, plus the adaptive invariant — the fallback engaged or the
fetched fraction stayed at or under the threshold — and an adaptive win
over the pure-resident source at the largest size.
Set ``BENCH_SMOKE=1`` to run the smallest size only (the CI smoke mode).
"""

import os

import pytest

from bench_utils import emit_bench_json, report_series, timed
from repro.backends import SqliteBackend
from repro.datasets import generate_customers, inject_noise, paper_cfds
from repro.detection.detector import ErrorDetector
from repro.repair.repairer import BatchRepairer
from repro.repair.source import BackendRepairSource
from repro.sources.backend import BackendTupleSource

SIZES = [600] if os.environ.get("BENCH_SMOKE") else [600, 2400, 9600]

_CFDS = paper_cfds()
_WORKLOADS = {
    size: inject_noise(
        generate_customers(size, seed=307 + size),
        rate=0.04,
        seed=308 + size,
        attributes=["CITY", "STR"],
    ).dirty
    for size in SIZES
}
#: the blanket-group pathology: CNT noise under [CC] -> [CNT] dirties
#: whole countries, so nearly every tuple lands in the working set
_BLANKET_WORKLOADS = {
    size: inject_noise(
        generate_customers(size, seed=317 + size),
        rate=0.04,
        seed=318 + size,
        attributes=["CNT"],
    ).dirty
    for size in SIZES
}


def _loaded_backend(size, workloads=_WORKLOADS):
    backend = SqliteBackend()
    backend.add_relation(workloads[size].copy())
    return backend


def _ship_back_repair(backend):
    """The pre-split protocol: move the relation out, repair natively."""
    return BatchRepairer().repair(backend.to_relation("customer"), _CFDS)


def _resident_repair(backend, fetch_threshold=None):
    """The resident protocol: plan over the backend, fetch only what's needed.

    The pushed-down detection the source starts from is timed with it.
    """
    report = ErrorDetector(backend).detect("customer", _CFDS)
    source = BackendRepairSource(
        BackendTupleSource(backend, "customer"),
        report,
        fetch_threshold=fetch_threshold,
    )
    repair = BatchRepairer().repair_with_source(source, _CFDS)
    return repair, source


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("mode", ["ship_back", "resident"])
def test_batch_repair_modes(benchmark, mode, size):
    """Wall time of one batch repair per transfer mode and size.

    Neither mode mutates the backend copy (the planner owns its working
    relation), so repeated benchmark rounds see identical data.
    """
    backend = _loaded_backend(size)
    if mode == "resident":
        repair, source = benchmark(_resident_repair, backend)
        benchmark.extra_info["rows_fetched"] = source.stats["rows_fetched"]
    else:
        repair = benchmark(_ship_back_repair, backend)
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["rows"] = size
    benchmark.extra_info["cells_changed"] = len(repair.changes)
    backend.close()


def _change_keys(repair):
    return [
        (change.tid, change.attribute, change.old_value, change.new_value, change.cost)
        for change in repair.changes
    ]


def test_resident_repairs_match_and_win():
    """Guard-rail: change parity at every size, resident win at the largest."""
    rows = []
    stats = {}
    for size in SIZES:
        backend = _loaded_backend(size)
        shipped_ms = resident_ms = None
        for _ in range(3):  # best-of-3 to keep the win assertion noise-proof
            shipped, ms = timed(_ship_back_repair, backend)
            shipped_ms = ms if shipped_ms is None else min(shipped_ms, ms)
            (resident, source), ms = timed(_resident_repair, backend)
            resident_ms = ms if resident_ms is None else min(resident_ms, ms)
        assert _change_keys(resident) == _change_keys(shipped)
        assert resident.residual_violations == shipped.residual_violations
        assert resident.source == "backend"
        stats = dict(source.stats)
        rows.append(
            {
                "rows": size,
                "cells_changed": len(resident.changes),
                "rows_fetched": source.stats["rows_fetched"],
                "resident_ms": round(resident_ms, 3),
                "ship_back_ms": round(shipped_ms, 3),
            }
        )
        backend.close()
    report_series("REPAIR-RESIDENT parity", rows)
    largest = rows[-1]
    assert largest["resident_ms"] < largest["ship_back_ms"], (
        "resident repair must beat the materialise-then-repair path "
        f"at {largest['rows']} rows: {largest}"
    )
    emit_bench_json(
        "REPAIR-RESIDENT",
        rows,
        metrics={
            "groups_checked": stats.get("groups_checked", 0),
            "groups_expanded": stats.get("groups_expanded", 0),
        },
    )


def test_blanket_groups_adaptive_fallback():
    """Guard-rail for the pathological regime: CNT noise under [CC] -> [CNT].

    At every size: the adaptive source's changes match the ship-back
    oracle, and the adaptive invariant holds — the fallback engaged or
    the row-by-row fetches stayed at or under the 0.5 threshold.  At the
    largest size the adaptive source must beat the pure-resident one
    (whose chunked ``IN`` fetches ship nearly everything anyway).
    """
    threshold = 0.5
    rows = []
    for size in SIZES:
        backend = _loaded_backend(size, _BLANKET_WORKLOADS)
        shipped_ms = pure_ms = adaptive_ms = None
        for _ in range(3):  # best-of-3 to keep the win assertion noise-proof
            shipped, ms = timed(_ship_back_repair, backend)
            shipped_ms = ms if shipped_ms is None else min(shipped_ms, ms)
            (pure, pure_source), ms = timed(_resident_repair, backend)
            pure_ms = ms if pure_ms is None else min(pure_ms, ms)
            (adaptive, source), ms = timed(
                _resident_repair, backend, fetch_threshold=threshold
            )
            adaptive_ms = ms if adaptive_ms is None else min(adaptive_ms, ms)
        assert _change_keys(adaptive) == _change_keys(shipped)
        assert _change_keys(pure) == _change_keys(shipped)
        assert adaptive.residual_violations == shipped.residual_violations
        fetched = source.stats["rows_fetched"]
        assert (
            source.stats["fallback_shipback"] == 1 or fetched <= threshold * size
        ), f"adaptive invariant broken at {size} rows: {source.stats}"
        rows.append(
            {
                "rows": size,
                "cells_changed": len(adaptive.changes),
                "rows_fetched": fetched,
                "fallback": source.stats["fallback_shipback"],
                "pure_fetched": pure_source.stats["rows_fetched"],
                "adaptive_ms": round(adaptive_ms, 3),
                "pure_resident_ms": round(pure_ms, 3),
                "ship_back_ms": round(shipped_ms, 3),
            }
        )
        backend.close()
    report_series("REPAIR-RESIDENT blanket groups", rows)
    largest = rows[-1]
    if not os.environ.get("BENCH_SMOKE"):
        assert largest["adaptive_ms"] < largest["pure_resident_ms"], (
            "the adaptive fallback must beat the pure-resident source on "
            f"blanket groups at {largest['rows']} rows: {largest}"
        )
    emit_bench_json("REPAIR-RESIDENT-BLANKET", rows)
