"""Tests for the data monitor: detection mode and repair (cleansed) mode."""

import pytest

from repro.core.satisfaction import violating_tids
from repro.datasets import generate_customers, paper_cfds
from repro.detection.detector import ErrorDetector
from repro.engine.database import Database
from repro.monitor.monitor import DataMonitor
from repro.monitor.updates import Update


@pytest.fixture
def clean_database(customer_cfds):
    database = Database()
    database.add_relation(generate_customers(60, seed=43))
    return database


@pytest.fixture
def monitor(clean_database, customer_cfds):
    return DataMonitor(clean_database, "customer", customer_cfds)


def violating_insert(relation):
    """A row that clashes with an existing UK postcode's street."""
    template = relation.get(0)
    row = dict(template)
    row["STR"] = "A Brand New Street"
    return row


class TestDetectionMode:
    def test_initially_clean(self, monitor):
        assert monitor.current_report().is_clean()
        assert monitor.summary()["mode"] == "detect"

    def test_insert_detected_not_repaired(self, monitor, clean_database):
        relation = clean_database.relation("customer")
        tid = monitor.apply(Update.insert(violating_insert(relation)))
        report = monitor.current_report()
        assert not report.is_clean()
        assert any(tid in violation.tids for violation in report.violations)
        assert monitor.repairs() == []

    def test_modify_and_delete_tracked(self, monitor, clean_database):
        monitor.apply(Update.modify(0, {"CNT": "XX"}))
        assert not monitor.current_report().is_clean()
        monitor.apply(Update.delete(0))
        assert monitor.current_report().is_clean()
        assert len(monitor.log) == 2

    def test_incremental_matches_batch_after_updates(self, monitor, clean_database, customer_cfds):
        relation = clean_database.relation("customer")
        monitor.apply(Update.insert(violating_insert(relation)))
        monitor.apply(Update.modify(1, {"CC": "99"}))
        batch = ErrorDetector(clean_database).detect("customer", customer_cfds)
        assert monitor.current_report().vio() == batch.vio()

    def test_violations_involving(self, monitor, clean_database):
        relation = clean_database.relation("customer")
        tid = monitor.apply(Update.insert(violating_insert(relation)))
        assert monitor.violations_involving(tid)


class TestRepairMode:
    def test_batch_apply_triggers_incremental_repair(self, monitor, clean_database, customer_cfds):
        monitor.mark_cleansed()
        relation = clean_database.relation("customer")
        monitor.apply_batch([Update.insert(violating_insert(relation))])
        assert monitor.current_report().is_clean()
        assert len(monitor.repairs()) == 1
        assert not violating_tids(relation, customer_cfds)

    def test_repair_only_touches_updated_tuples(self, monitor, clean_database, customer_cfds):
        monitor.mark_cleansed()
        relation = clean_database.relation("customer")
        original = {tid: relation.get(tid) for tid in relation.tids()}
        new_tids = monitor.apply_batch([Update.insert(violating_insert(relation))])
        for tid, row in original.items():
            assert relation.get(tid) == row
        assert all(tid is not None for tid in new_tids)

    def test_mode_switching(self, monitor):
        monitor.mark_cleansed()
        assert monitor.summary()["mode"] == "repair"
        monitor.mark_dirty()
        assert monitor.summary()["mode"] == "detect"

    def test_delete_batch_in_repair_mode(self, monitor, clean_database):
        monitor.mark_cleansed()
        monitor.apply_batch([Update.delete(0)])
        assert monitor.current_report().is_clean()

    def test_summary_counts(self, monitor, clean_database):
        relation = clean_database.relation("customer")
        monitor.apply(Update.insert(violating_insert(relation)))
        summary = monitor.summary()
        assert summary["updates_applied"] == 1
        assert summary["current_violations"] >= 1
        assert summary["tuples_examined"] > 0


class TestBackendMirroring:
    def test_attached_backend_receives_every_update_as_delta(
        self, clean_database, customer_cfds, sqlite_backend_factory
    ):
        backend = sqlite_backend_factory()
        backend.add_relation(clean_database.relation("customer"))
        monitor = DataMonitor(
            clean_database, "customer", customer_cfds, backend=backend
        )
        relation = clean_database.relation("customer")
        tids = relation.tids()
        new_tid = monitor.apply(Update.insert(violating_insert(relation)))
        monitor.apply(Update.modify(tids[1], {"CNT": "Narnia"}))
        monitor.apply(Update.delete(tids[2]))
        # the backend copy tracked every change, tid for tid
        assert dict(backend.iter_rows("customer")) == dict(relation.rows())
        assert backend.get_row("customer", new_tid)["STR"] == "A Brand New Street"

    def test_monitor_without_backend_keeps_seed_behaviour(self, monitor):
        assert monitor.backend is None
        assert monitor._detector.mirror is None
