"""What the backend-resident repair source fetches, and when.

The source reads the report's dirty region and the members of the groups
a change queued, and nothing else:

* **majority pruning** — a re-queued group whose combined value set
  (working values of fetched members plus the backend ``majority_value``
  histogram of unfetched ones) is already unanimous cannot violate, so
  its members are never shipped;
* **the blanket regime** — when every tuple is dirty (the pathology of
  ``[CC] -> [CNT]`` noise, which turns whole countries into one
  violation), the region is the whole relation: it is read in one
  ``row_fetch`` pass, the closure fetches nothing more and no
  ``page_fetch`` scan runs.

Both must leave the planner's decisions bit-identical to the native
oracle; ``test_resident_parity.py`` pins random relations, here the
blanket regime gets the same treatment plus unit coverage of the stats
and counters.
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


def _source(backend, cfds, telemetry=None):
    """A resident source starting from a report detected over ``backend``."""
    report = ErrorDetector(backend).detect("r", cfds)
    return BackendRepairSource(
        BackendTupleSource(backend, "r", telemetry=telemetry), report
    )


@pytest.fixture
def statement_kinds(monkeypatch):
    """The kinds of the statements tuple sources run, in order."""
    kinds = []
    execute = BackendTupleSource._execute

    def recording(source, query):
        kinds.append(query.kind)
        return execute(source, query)

    monkeypatch.setattr(BackendTupleSource, "_execute", recording)
    return kinds


def _change_keys(repair):
    return [(c.tid, c.attribute, c.old_value, c.new_value) for c in repair.changes]


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


class TestBlanketRegime:
    def test_blanket_dirty_region_is_read_in_one_row_fetch(
        self, sqlite_with, statement_kinds
    ):
        backend = sqlite_with(BLANKET_ROWS)
        try:
            telemetry = Telemetry(enabled=True)
            cfds = [parse_cfd(CFD_AB)]
            source = _source(backend, cfds, telemetry=telemetry)
            working = source.load(cfds)
            assert len(working) == len(BLANKET_ROWS)
            assert source.fetch_fraction() == 1.0
            snapshot = telemetry.metrics.snapshot()
            assert snapshot["counters"]["repair.rows_fetched"] == len(BLANKET_ROWS)
            # a change's group is complete already: counted, never fetched
            working.update(0, {"B": "x"})
            source.note_change(working, 0, "B")
            assert source.begin_round(working) == []
            assert statement_kinds == ["row_fetch", "group_stats"]
            assert source.stats["rows_fetched"] == len(BLANKET_ROWS)
        finally:
            backend.close()

    def test_sparse_dirty_region_fetches_only_the_region(self, sqlite_with):
        backend = sqlite_with(PRUNABLE_ROWS)
        try:
            cfds = [parse_cfd(CFD_AB)]
            source = _source(backend, cfds)
            working = source.load(cfds)
            assert len(working) == 2
            assert source.fetch_fraction() == pytest.approx(2 / 5)
        finally:
            backend.close()

    def test_blanket_repair_matches_the_native_oracle(
        self, sqlite_backend_factory, statement_kinds
    ):
        relation = _relation(BLANKET_ROWS)
        cfds = [parse_cfd(CFD_AB)]
        native = BatchRepairer(max_iterations=12).repair(relation, cfds)
        backend = sqlite_backend_factory()
        try:
            backend.add_relation(relation.copy())
            source = _source(backend, cfds)
            resident = BatchRepairer(max_iterations=12).repair_with_source(
                source, cfds
            )
            assert _change_keys(resident) == _change_keys(native)
            assert resident.total_cost == pytest.approx(native.total_cost)
            assert resident.residual_violations == native.residual_violations
            assert source.fetch_fraction() == 1.0
            assert statement_kinds.count("row_fetch") == 1
            assert "page_fetch" not in statement_kinds
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

    def test_blanket_noise_through_the_facade_matches_the_native_repair(
        self, sqlite_config, statement_kinds
    ):
        system = self._blanket_system(sqlite_config, telemetry=True)
        oracle = self._blanket_system(sqlite_config, use_sql_detection=False)
        try:
            # [CC] -> [CNT] noise dirties whole countries: every tuple
            report = system.detect("customer")
            assert len(report.dirty_tids()) == report.tuple_count == 60
            del statement_kinds[:]
            repair = system.repair("customer")
            assert _change_keys(repair) == _change_keys(oracle.repair("customer"))
            assert statement_kinds.count("row_fetch") == 1
            assert "page_fetch" not in statement_kinds
            counters = system.metrics()["counters"]
            assert counters["repair.fetch_fraction"] == 100
            assert counters["repair.rows_fetched"] == 60
            before = report.total_violations()
            system.apply_repair("customer")
            assert system.detect("customer").total_violations() < before
        finally:
            system.close()
            oracle.close()
