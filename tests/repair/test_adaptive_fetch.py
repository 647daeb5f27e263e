"""Adaptive fetching in the backend-resident repair source.

Two mechanisms keep the closure's row traffic proportional to what the
planner actually needs:

* **majority pruning** — a re-queued group whose combined value set
  (working values of fetched members plus the backend ``majority_value``
  histogram of unfetched ones) is already unanimous cannot violate, so
  its members are never shipped;
* **threshold fallback** — when the dirty region (or a closure round's
  cumulative fetches) would cross ``fetch_threshold`` of the relation,
  the source switches to one keyset-paged full scan instead of paying
  per-key ``IN`` restrictions for nearly every tuple (the blanket-group
  pathology of ``[CC] -> [CNT]`` noise).

Both must leave the planner's decisions bit-identical to the native
oracle; ``test_resident_parity.py`` pins the default path, here the
fallback path gets the same treatment plus unit coverage of the stats,
counters and configuration validation.
"""

from collections import Counter

import pytest

from repro import Semandaq
from repro.core.parser import parse_cfd
from repro.datasets import generate_customers, inject_noise, paper_cfds
from repro.detection.detector import ErrorDetector
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema
from repro.obs.telemetry import Telemetry
from repro.repair.repairer import BatchRepairer
from repro.repair.source import BackendRepairSource
from repro.sources.backend import BackendTupleSource


def _schema():
    return RelationSchema.of("r", ["A", "B"])


def _relation(rows):
    return Relation.from_rows(_schema(), rows)


@pytest.fixture
def sqlite_with(sqlite_backend_factory):
    """Load ``rows`` into a fresh SQLite store (a file in file mode)."""

    def factory(rows, **options):
        backend = sqlite_backend_factory(**options)
        backend.add_relation(_relation(rows))
        return backend

    return factory


CFD_AB = "r: [A=_] -> [B=_]"


def _source(backend, cfds, telemetry=None, fetch_threshold=None):
    """A resident source starting from a report detected over ``backend``."""
    report = ErrorDetector(backend).detect("r", cfds)
    return BackendRepairSource(
        BackendTupleSource(backend, "r", telemetry=telemetry),
        report,
        fetch_threshold=fetch_threshold,
    )


#: one violating pair in group g1, one unanimous unfetched group g2
PRUNABLE_ROWS = [
    {"A": "g1", "B": "x"},
    {"A": "g1", "B": "y"},
    {"A": "g2", "B": "z"},
    {"A": "g2", "B": "z"},
    {"A": "g2", "B": "z"},
]

#: every row is dirty: one group, alternating RHS values
BLANKET_ROWS = [{"A": "g", "B": "x" if i % 2 else "y"} for i in range(10)]


class TestMajorityPruning:
    def test_unanimous_group_is_pruned_without_fetching(self, sqlite_with):
        backend = sqlite_with(PRUNABLE_ROWS)
        try:
            telemetry = Telemetry(enabled=True)
            cfds = [parse_cfd(CFD_AB)]
            source = _source(backend, cfds, telemetry=telemetry)
            working = source.load(cfds)
            assert sorted(tid for tid, _row in working.rows()) == [0, 1]
            # the planner moves tid 1 into g2, agreeing with its majority
            working.update(1, {"A": "g2", "B": "z"})
            source.note_change(working, 1, "A")
            source.begin_round(working)
            assert source.stats["groups_pruned"] == 1
            assert source.stats["groups_expanded"] == 0
            assert source.stats["rows_fetched"] == 2  # nothing shipped
            assert 2 not in working
            snapshot = telemetry.metrics.snapshot()
            assert snapshot["counters"]["repair.closure_pruned"] == 1
        finally:
            backend.close()

    def test_disagreeing_group_is_still_expanded(self, sqlite_with):
        backend = sqlite_with(PRUNABLE_ROWS)
        try:
            cfds = [parse_cfd(CFD_AB)]
            source = _source(backend, cfds)
            working = source.load(cfds)
            # the moved tuple disagrees with g2's stored majority
            working.update(1, {"A": "g2", "B": "w"})
            source.note_change(working, 1, "A")
            source.begin_round(working)
            assert source.stats["groups_pruned"] == 0
            assert source.stats["groups_expanded"] == 1
            assert sorted(tid for tid, _row in working.rows()) == [0, 1, 2, 3, 4]
        finally:
            backend.close()


class TestThresholdFallback:
    def test_blanket_dirty_region_ships_back_in_pages(self, sqlite_with):
        backend = sqlite_with(BLANKET_ROWS)
        try:
            telemetry = Telemetry(enabled=True)
            cfds = [parse_cfd(CFD_AB)]
            source = _source(backend, cfds, telemetry=telemetry, fetch_threshold=0.5)
            working = source.load(cfds)
            assert source.stats["fallback_shipback"] == 1
            assert len(working) == len(BLANKET_ROWS)
            assert source.fetch_fraction() == 1.0
            snapshot = telemetry.metrics.snapshot()
            assert snapshot["counters"]["repair.fallback_shipback"] == 1
            assert snapshot["counters"]["repair.rows_fetched"] == len(BLANKET_ROWS)
            # the closure hooks are no-ops once the relation is complete
            working.update(0, {"B": "x"})
            source.note_change(working, 0, "B")
            statements_before = len(source.last_sql)
            source.begin_round(working)
            assert len(source.last_sql) == statements_before
        finally:
            backend.close()

    def test_none_threshold_keeps_the_pure_resident_path(self, sqlite_with):
        backend = sqlite_with(BLANKET_ROWS)
        try:
            cfds = [parse_cfd(CFD_AB)]
            source = _source(backend, cfds, fetch_threshold=None)
            working = source.load(cfds)
            assert source.stats["fallback_shipback"] == 0
            # every row is dirty, so the dirty fetch materialises them all
            assert len(working) == len(BLANKET_ROWS)
        finally:
            backend.close()

    def test_sparse_dirty_region_never_falls_back(self, sqlite_with):
        backend = sqlite_with(PRUNABLE_ROWS)
        try:
            cfds = [parse_cfd(CFD_AB)]
            source = _source(backend, cfds, fetch_threshold=0.5)
            working = source.load(cfds)
            assert source.stats["fallback_shipback"] == 0
            assert len(working) == 2
            assert source.fetch_fraction() == pytest.approx(2 / 5)
        finally:
            backend.close()

    def test_fallback_repair_matches_the_native_oracle(self, sqlite_backend_factory):
        relation = _relation(BLANKET_ROWS)
        cfds = [parse_cfd(CFD_AB)]
        native = BatchRepairer(max_iterations=12).repair(relation, cfds)
        backend = sqlite_backend_factory()
        try:
            backend.add_relation(relation.copy())
            source = _source(backend, cfds, fetch_threshold=0.5)
            resident = BatchRepairer(max_iterations=12).repair_with_source(
                source, cfds
            )
            assert source.stats["fallback_shipback"] == 1
            assert [
                (c.tid, c.attribute, c.old_value, c.new_value)
                for c in resident.changes
            ] == [
                (c.tid, c.attribute, c.old_value, c.new_value)
                for c in native.changes
            ]
            assert resident.total_cost == pytest.approx(native.total_cost)
            assert resident.residual_violations == native.residual_violations
        finally:
            backend.close()

    def test_fetch_fraction_is_zero_before_load(self, sqlite_with):
        backend = sqlite_with(PRUNABLE_ROWS)
        try:
            source = _source(backend, [parse_cfd(CFD_AB)])
            assert source.fetch_fraction() == 0.0
        finally:
            backend.close()


class TestSystemIntegration:
    def _blanket_system(self, sqlite_config, **config):
        system = Semandaq(config=sqlite_config(**config))
        clean = generate_customers(60, seed=77)
        dirty = inject_noise(clean, rate=0.1, seed=78, attributes=["CNT"]).dirty
        system.register_relation(dirty)
        system.add_cfds(paper_cfds())
        return system

    def test_blanket_noise_engages_the_fallback_through_the_facade(self, sqlite_config):
        system = self._blanket_system(sqlite_config, telemetry=True)
        try:
            before = system.detect("customer").total_violations()
            system.clean("customer")
            after = system.detect("customer").total_violations()
            assert after < before
            counters = system.metrics()["counters"]
            # [CC] -> [CNT] noise dirties whole countries: the adaptive
            # source must either ship back or have stayed under threshold
            assert (
                counters.get("repair.fallback_shipback", 0) == 1
                or counters["repair.rows_fetched"] <= 0.5 * 60
            )
            assert "repair.fetch_fraction" in counters
            assert counters["repair.rows_fetched"] > 0
        finally:
            system.close()
