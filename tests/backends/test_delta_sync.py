"""Backend-resident incremental maintenance: per-tid delta shipping.

The data monitor forwards every applied update — and every incremental-repair
cell change — to the attached storage backend as a single-statement
INSERT/DELETE/UPDATE, so a monitored relation never needs the whole-relation
``add_relation(replace=True)`` re-sync the facade used to issue before each
``detect``.  These tests pin the delta ops at the backend level, the
no-full-resync property at the facade level (via the facade's sync counter
and a backend call log), and the ``clean()`` round-trip on a file-backed
SQLite store.
"""

import pytest

from repro import Semandaq, SemandaqConfig
from repro.backends import SqliteBackend
from repro.datasets import generate_customers, paper_cfds
from repro.detection.detector import ErrorDetector
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.types import AttributeDef, DataType, RelationSchema
from repro.errors import ConstraintViolationError, RepairError, UnknownTupleError
from repro.monitor.monitor import DataMonitor
from repro.monitor.updates import Update
from repro.repair.repairer import CellChange, Repair


SCHEMA = RelationSchema(
    "items",
    [
        AttributeDef("NAME"),
        AttributeDef("QTY", DataType.INTEGER),
        AttributeDef("OK", DataType.BOOLEAN),
    ],
)

ROWS = [
    {"NAME": "bolt", "QTY": 5, "OK": True},
    {"NAME": "nut", "QTY": 7, "OK": False},
    {"NAME": "washer", "QTY": 2, "OK": True},
]


def _loaded(backend):
    backend.add_relation(Relation.from_rows(SCHEMA, ROWS))
    return backend


@pytest.fixture
def backend():
    instance = _loaded(SqliteBackend())
    yield instance
    instance.close()


class TestDeltaOps:
    def test_insert_row_assigns_next_tid(self, backend):
        tid = backend.insert_row("items", {"NAME": "screw", "QTY": 9, "OK": False})
        assert tid == 3
        assert backend.get_row("items", 3)["NAME"] == "screw"
        assert backend.row_count("items") == 4

    def test_insert_row_with_explicit_tid_is_stable(self, backend):
        tid = backend.insert_row("items", {"NAME": "nail", "QTY": 1, "OK": True}, tid=10)
        assert tid == 10
        assert backend.get_row("items", 10)["QTY"] == 1
        # the tid counter advanced past the explicit id
        assert backend.insert_row("items", {"NAME": "pin", "QTY": 4, "OK": True}) == 11

    def test_insert_row_rejects_live_tid(self, backend):
        with pytest.raises(ConstraintViolationError):
            backend.insert_row("items", {"NAME": "dup", "QTY": 0, "OK": True}, tid=0)

    def test_delete_row(self, backend):
        backend.delete_row("items", 1)
        assert backend.row_count("items") == 2
        with pytest.raises(UnknownTupleError):
            backend.get_row("items", 1)
        with pytest.raises(UnknownTupleError):
            backend.delete_row("items", 1)

    def test_update_row_changes_only_named_attributes(self, backend):
        backend.update_row("items", 2, {"QTY": 99, "OK": False})
        row = backend.get_row("items", 2)
        assert row == {"NAME": "washer", "QTY": 99, "OK": False}
        with pytest.raises(UnknownTupleError):
            backend.update_row("items", 42, {"QTY": 1})

    def test_update_row_empty_changes_still_validates_tid(self, backend):
        backend.update_row("items", 0, {})  # no-op on a live tid
        assert backend.get_row("items", 0)["NAME"] == "bolt"
        with pytest.raises(UnknownTupleError):
            backend.update_row("items", 42, {})

    def test_delta_ops_keep_backend_identical_to_relation(self, backend):
        relation = Relation.from_rows(SCHEMA, ROWS)
        backend.insert_row("items", {"NAME": "screw", "QTY": 9, "OK": False})
        relation.insert({"NAME": "screw", "QTY": 9, "OK": False})
        backend.update_row("items", 0, {"QTY": 6})
        relation.update(0, {"QTY": 6})
        backend.delete_row("items", 1)
        relation.delete(1)
        backend.insert_row("items", {"NAME": "rivet", "QTY": 3, "OK": True}, tid=8)
        relation.insert_at(8, {"NAME": "rivet", "QTY": 3, "OK": True})
        assert list(backend.iter_rows("items")) == list(relation.rows())


def _monitored_batch(system):
    """Insert + modify + delete through the monitor, then detect."""
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
    return system.detect("customer")


class TestMonitoredDeltaSync:
    def test_sql_and_native_reports_agree_without_full_resync(self):
        reports, syncs = {}, {}
        for use_sql in (False, True):
            system = Semandaq(config=SemandaqConfig(use_sql_detection=use_sql))
            system.register_relation(generate_customers(60, seed=47).copy())
            system.add_cfds(paper_cfds())
            reports[use_sql] = _monitored_batch(system)
            syncs[use_sql] = system.full_sync_count
            system.close()
        assert reports[False].vio() == reports[True].vio()
        assert reports[False].dirty_tids() == reports[True].dirty_tids()
        assert reports[True].total_violations() > 0
        # one bulk load at registration, never again afterwards
        assert syncs[True] == 1

    def test_monitored_updates_ship_as_deltas_not_bulk_loads(self):
        system = Semandaq(config=SemandaqConfig(backend="sqlite"))
        system.register_relation(generate_customers(40, seed=53).copy())
        system.add_cfds(paper_cfds())
        calls = []
        original = system.backend.add_relation
        system.backend.add_relation = lambda *args, **kwargs: (
            calls.append(args[0].name),
            original(*args, **kwargs),
        )
        _monitored_batch(system)
        # nothing is bulk-written: detection adds no relation, and the
        # data travels as delta batches
        assert calls == []
        # the backend copy tracked the working store row for row
        working = dict(system.database.relation("customer").rows())
        assert dict(system.backend.iter_rows("customer")) == working
        system.close()

    def test_apply_batch_ships_one_delta_batch_round_trip(self):
        # three updates, one apply_delta_batch call (one transaction), not
        # three single-statement round trips
        system = Semandaq(config=SemandaqConfig(backend="sqlite"))
        system.register_relation(generate_customers(40, seed=57).copy())
        system.add_cfds(paper_cfds())
        shipped = []
        original = system.backend.apply_delta_batch
        system.backend.apply_delta_batch = lambda name, batch: (
            shipped.append((name, batch.statement_count)),
            original(name, batch),
        )
        _monitored_batch(system)
        assert shipped == [("customer", 3)]
        assert system.monitor("customer")._detector.batches_shipped == 1
        system.close()

    def test_facade_apply_updates_routes_through_one_batch(self):
        system = Semandaq(config=SemandaqConfig(backend="sqlite"))
        system.register_relation(generate_customers(40, seed=58).copy())
        system.add_cfds(paper_cfds())
        relation = system.database.relation("customer")
        shipped = []
        original = system.backend.apply_delta_batch
        system.backend.apply_delta_batch = lambda name, batch: (
            shipped.append(len(batch)),
            original(name, batch),
        )
        tids = system.apply_updates(
            "customer",
            [
                Update.modify(relation.tids()[0], {"CNT": "Narnia"}),
                Update.modify(relation.tids()[0], {"CITY": "Nowhere"}),
                Update.delete(relation.tids()[1]),
            ],
        )
        # the two modifies of one tuple coalesced: two touched tuples total
        assert shipped == [2]
        assert tids == [relation.tids()[0], relation.tids()[0], 1]
        assert dict(system.backend.iter_rows("customer")) == dict(relation.rows())
        assert system.detect("customer").total_violations() > 0
        system.close()

    def test_repair_mode_changes_reach_backend_as_updates(self):
        system = Semandaq(config=SemandaqConfig(backend="sqlite"))
        system.register_relation(generate_customers(50, seed=59).copy())
        system.add_cfds(paper_cfds())
        relation = system.database.relation("customer")
        template = relation.get(relation.tids()[0])
        monitor = system.monitor("customer", cleansed=True)
        monitor.apply_batch(
            [Update.insert(dict(template, STR="A Brand New Street"))]
        )
        assert len(monitor.repairs()) == 1
        # the incremental repair's cell changes were shipped down per tid
        assert dict(system.backend.iter_rows("customer")) == dict(
            system.database.relation("customer").rows()
        )
        assert system.full_sync_count == 1
        system.close()

    def test_apply_repair_detaches_the_retired_monitor(self):
        # apply_repair swaps the relation and its monitor; a user-held
        # reference to the old monitor must not keep mirroring deltas from
        # the replaced (ghost) relation into the backend copy
        from repro.datasets import inject_noise

        system = Semandaq(config=SemandaqConfig(backend="sqlite"))
        dirty = inject_noise(
            generate_customers(40, seed=79), rate=0.05, seed=80,
            attributes=["CNT", "CITY", "STR", "CC"],
        ).dirty
        system.register_relation(dirty.copy())
        system.add_cfds(paper_cfds())
        old_monitor = system.monitor("customer")
        system.repair("customer")
        system.apply_repair("customer")
        assert old_monitor.backend is None
        live = system.database.relation("customer")
        ghost_tid = old_monitor._detector.relation.tids()[0]
        old_monitor.apply(Update.modify(ghost_tid, {"CNT": "GhostLand"}))
        # the backend copy still tracks the live (repaired) relation
        assert dict(system.backend.iter_rows("customer")) == dict(live.rows())
        system.close()

    def test_reregistering_a_relation_drops_the_stale_monitor(self):
        # a cached monitor is bound to the replaced Relation object; if it
        # survived re-registration it would mirror deltas from that ghost
        # into the freshly synced backend copy
        system = Semandaq(config=SemandaqConfig(backend="sqlite"))
        system.register_relation(generate_customers(30, seed=71).copy())
        system.add_cfds(paper_cfds())
        old_monitor = system.monitor("customer")
        system.register_relation(generate_customers(30, seed=72).copy(), replace=True)
        new_monitor = system.monitor("customer")
        assert new_monitor is not old_monitor
        # the ghost's relation is detached: updates through the new monitor
        # reach the working store and the backend, and detect() agrees
        relation = system.database.relation("customer")
        assert new_monitor._detector.relation is relation
        new_monitor.apply(Update.modify(relation.tids()[0], {"CNT": "Narnia"}))
        assert dict(system.backend.iter_rows("customer")) == dict(relation.rows())
        assert system.detect("customer").total_violations() > 0
        # a user-held reference to the retired monitor was detached: its
        # updates hit only the ghost relation, never the backend copy
        assert old_monitor.backend is None
        ghost_tid = old_monitor._detector.relation.tids()[0]
        old_monitor.apply(Update.modify(ghost_tid, {"CNT": "GhostLand"}))
        assert dict(system.backend.iter_rows("customer")) == dict(relation.rows())
        system.close()

    def test_failed_mirror_delta_triggers_full_resync_on_next_detect(self):
        # if a delta ships after the working store mutated and the backend
        # errors out, the backend copy lags; the facade must notice and
        # bulk re-sync instead of silently detecting against stale data
        system = Semandaq(config=SemandaqConfig(backend="sqlite"))
        system.register_relation(generate_customers(30, seed=73).copy())
        system.add_cfds(paper_cfds())
        monitor = system.monitor("customer")
        relation = system.database.relation("customer")

        def exploding_apply_delta_batch(name, batch):
            raise RuntimeError("disk full")

        original_apply = system.backend.apply_delta_batch
        system.backend.apply_delta_batch = exploding_apply_delta_batch
        with pytest.raises(RuntimeError):
            monitor.apply(Update.modify(relation.tids()[0], {"CNT": "Narnia"}))
        system.backend.apply_delta_batch = original_apply
        # the working store took the update, the backend did not
        assert monitor.backend_desynced
        assert system.backend.get_row("customer", relation.tids()[0])["CNT"] != "Narnia"
        syncs_before = system.full_sync_count
        report = system.detect("customer")
        assert system.full_sync_count == syncs_before + 1
        assert not monitor.backend_desynced
        assert report.total_violations() > 0  # the Narnia update is visible
        assert dict(system.backend.iter_rows("customer")) == dict(relation.rows())
        system.close()

    def test_verify_untouched_guards_protected_tuples(self):
        database_system = Semandaq()
        database_system.register_relation(generate_customers(30, seed=61).copy())
        database_system.add_cfds(paper_cfds())
        monitor = database_system.monitor("customer", cleansed=True)
        relation = database_system.database.relation("customer")

        from repro.repair.incremental import IncrementalRepairer

        class RogueRepairer(IncrementalRepairer):
            # returns a repair touching a protected tuple; the monitor's
            # safety net (the inherited verify_untouched) must reject it
            def repair_updates(self, rel, cfds, tids):
                protected_tid = [t for t in rel.tids() if t not in set(tids)][0]
                change = CellChange(
                    tid=protected_tid,
                    attribute="CNT",
                    old_value=rel.get(protected_tid)["CNT"],
                    new_value="Mordor",
                    cost=1.0,
                    reason="rogue",
                )
                return Repair(original=rel, repaired=rel.copy(), changes=[change])

        monitor._repairer = RogueRepairer()
        before = dict(relation.rows())
        with pytest.raises(RepairError):
            monitor.repair_affected([relation.tids()[0]])
        # the safety net fired before any change was applied
        assert dict(relation.rows()) == before


class TestFileBackedRecoveryUnderMonitor:
    """Satellite: reopen a file-backed store, attach a monitor, apply
    deltas, and assert parity with a fresh load of the same data."""

    @pytest.mark.parametrize("mode", ["native"])
    def test_reopened_catalog_accepts_monitored_deltas(self, tmp_path, mode):
        path = tmp_path / "recover.db"
        original = generate_customers(50, seed=83)
        # session 1: load the store, then disconnect
        with SqliteBackend(path=str(path)) as backend:
            backend.add_relation(original.copy())
        # session 2: reopen — the catalog (schema + tid counter) is rebuilt
        # from the file — and monitor the recovered relation
        with SqliteBackend(path=str(path)) as reopened:
            assert reopened.relation_names() == ["customer"]
            database = Database()
            database.add_relation(reopened.to_relation("customer").copy())
            monitor = DataMonitor(database, "customer", paper_cfds(), backend=reopened)
            assert monitor.mode == mode
            relation = database.relation("customer")
            template = relation.get(relation.tids()[0])
            monitor.apply_batch(
                [
                    Update.insert(dict(template, STR="A Brand New Street")),
                    Update.modify(relation.tids()[1], {"CNT": "Narnia"}),
                    Update.delete(relation.tids()[2]),
                ]
            )
            # the recovered tid counter kept the new insert off live tids
            assert max(dict(reopened.iter_rows("customer"))) == len(original)
            # the deltas landed in the recovered store, row for row
            assert dict(reopened.iter_rows("customer")) == dict(relation.rows())
            monitored_report = monitor.current_report()
            expected_rows = dict(relation.rows())
        # parity with a fresh bulk load of the same (updated) data
        with SqliteBackend() as fresh:
            fresh.add_relation(
                Relation.from_tid_rows(relation.schema, expected_rows.items())
            )
            oracle = ErrorDetector(fresh).detect("customer", paper_cfds())
        assert monitored_report.vio() == oracle.vio()
        assert monitored_report.dirty_tids() == oracle.dirty_tids()
        assert monitored_report.total_violations() > 0
        # session 3: the deltas were durably committed — a reopen still
        # matches the working store
        with SqliteBackend(path=str(path)) as again:
            assert dict(again.iter_rows("customer")) == expected_rows


class TestFileBackedCleanRoundTrip:
    def test_clean_ships_repair_as_per_tid_updates(self, tmp_path):
        path = tmp_path / "delta.db"
        config = SemandaqConfig(backend="sqlite", backend_options={"path": str(path)})
        from repro.datasets import inject_noise

        clean = generate_customers(80, seed=67)
        dirty = inject_noise(
            clean, rate=0.05, seed=68, attributes=["CNT", "CITY", "STR", "CC"]
        ).dirty
        with Semandaq(config=config) as system:
            system.register_relation(dirty.copy())
            system.add_cfds(paper_cfds())
            summary = system.clean("customer")
            assert summary["cells_changed"] > 0
            assert summary["violations_after"] <= summary["violations_before"]
            # one bulk load at registration; the repair travelled as UPDATEs
            assert system.full_sync_count == 1
            expected = dict(system.database.relation("customer").rows())
        # reopen the file: the per-tid UPDATEs were durably persisted
        reopened = SqliteBackend(path=str(path))
        assert dict(reopened.iter_rows("customer")) == expected
        reopened.close()
