"""Tests for the Semandaq facade: the end-to-end workflow of the demo."""

import pytest

from repro import Semandaq, SemandaqConfig
from repro.core.satisfaction import satisfies_all, violating_tids
from repro.datasets import generate_customers, inject_noise, paper_cfds
from repro.engine.csvio import dump_csv
from repro.errors import BackendError, ConfigurationError
from repro.monitor.updates import Update


class TestConnectAndSpecify:
    def test_register_relation_and_schema_summary(self, system):
        assert system.schema_summary() == {
            "customer": ["NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"]
        }

    def test_load_csv(self, customer_relation):
        semandaq = Semandaq()
        semandaq.load_csv(dump_csv(customer_relation), "customer")
        assert "customer" in semandaq.schema_summary()

    def test_add_cfd_from_text(self, customer_relation):
        semandaq = Semandaq()
        semandaq.register_relation(customer_relation)
        cfd = semandaq.add_cfd("customer: [CC='44'] -> [CNT='UK']")
        assert cfd.relation == "customer"
        assert semandaq.check_constraints("customer").consistent

    def test_discover_cfds(self):
        semandaq = Semandaq()
        reference = generate_customers(100, seed=61)
        semandaq.register_relation(reference)
        discovered = semandaq.discover_cfds(
            reference, register=True, min_support=10, max_lhs_size=1
        )
        assert discovered
        assert semandaq.detect("customer").is_clean()


class TestDetectAuditExplore:
    def test_detect_and_cached_report(self, system):
        report = system.detect("customer")
        assert report.total_violations() >= 3
        assert system.last_report("customer") is report

    def test_audit_matches_detection(self, system):
        system.detect("customer")
        audit = system.audit("customer")
        assert audit.tuple_count == 6
        assert audit.dirty_tuple_count() == 3

    def test_explorer_and_session(self, system):
        explorer = system.explorer("customer")
        assert len(explorer.list_cfds()) == 4
        session = system.exploration_session("customer")
        assert session.level == "cfd"

    def test_detect_for_tuples_facade(self, system):
        full = system.detect("customer")
        restricted = system.detect_for_tuples("customer", [4])
        assert restricted.total_violations() >= 1
        assert all(4 in violation.tids for violation in restricted.violations)
        assert restricted.tuple_count == full.tuple_count
        # the partial report must not displace the cached full report
        assert system.last_report("customer") is full

    def test_detect_for_tuples_facade_on_sqlite(self, customer_relation, customer_cfds):
        semandaq = Semandaq(SemandaqConfig(backend="sqlite"))
        semandaq.register_relation(customer_relation)
        semandaq.add_cfds(customer_cfds)
        restricted = semandaq.detect_for_tuples("customer", [4])
        assert restricted.total_violations() >= 1
        assert all(4 in violation.tids for violation in restricted.violations)
        semandaq.close()

    def test_native_detection_configuration(self, customer_relation, customer_cfds):
        semandaq = Semandaq(SemandaqConfig(use_sql_detection=False))
        semandaq.register_relation(customer_relation)
        semandaq.add_cfds(customer_cfds)
        assert semandaq.detect("customer").total_violations() >= 3


class TestServe:
    def _serving_system(self, tmp_path, customer_relation, customer_cfds, **overrides):
        config = SemandaqConfig(
            backend="sqlite",
            backend_options={"path": str(tmp_path / "serve.db")},
            **overrides,
        )
        semandaq = Semandaq(config)
        semandaq.register_relation(customer_relation)
        semandaq.add_cfds(customer_cfds)
        return semandaq

    def test_serve_matches_serial_detect_for_tuples(
        self, tmp_path, customer_relation, customer_cfds
    ):
        semandaq = self._serving_system(
            tmp_path, customer_relation, customer_cfds, serve_threads=4
        )
        requests = [[0, 1], [2, 3], [4], [5], [0, 4], [1, 5]]
        serial = [
            semandaq.detect_for_tuples("customer", tids) for tids in requests
        ]
        concurrent = semandaq.serve("customer", requests)
        assert concurrent == serial
        semandaq.close()

    def test_serve_single_worker_runs_serially(
        self, tmp_path, customer_relation, customer_cfds
    ):
        semandaq = self._serving_system(
            tmp_path, customer_relation, customer_cfds, serve_threads=1
        )
        reports = semandaq.serve("customer", [[4], [0, 1]])
        assert len(reports) == 2
        assert all(4 in v.tids for v in reports[0].violations)
        semandaq.close()

    def test_serve_rejects_invalid_worker_count(
        self, tmp_path, customer_relation, customer_cfds
    ):
        semandaq = self._serving_system(tmp_path, customer_relation, customer_cfds)
        with pytest.raises(ConfigurationError):
            semandaq.serve("customer", [[0]], max_workers=0)
        semandaq.close()

    def test_pool_counters_surface_in_metrics(
        self, tmp_path, customer_relation, customer_cfds
    ):
        semandaq = self._serving_system(
            tmp_path, customer_relation, customer_cfds, telemetry=True, pool_size=2
        )
        semandaq.serve("customer", [[0], [1], [2], [3]])
        counters = semandaq.metrics()["counters"]
        assert counters["pool.size"] == 2
        assert counters["pool.acquired"] >= 1
        assert "pool.wait_ms" in counters
        semandaq.close()

    def test_pool_size_zero_config_serves_correctly(
        self, tmp_path, customer_relation, customer_cfds
    ):
        semandaq = self._serving_system(
            tmp_path, customer_relation, customer_cfds, pool_size=0
        )
        assert semandaq.backend.pool_stats() == {}
        serial = [semandaq.detect_for_tuples("customer", [4])]
        assert semandaq.serve("customer", [[4]]) == serial
        semandaq.close()


class TestRepairReviewApply:
    def test_repair_and_review(self, system):
        repair = system.repair("customer")
        assert repair.changes
        review = system.review("customer")
        assert review.modified_cells()

    def test_apply_repair_replaces_relation(self, system, customer_cfds):
        system.repair("customer")
        repaired = system.apply_repair("customer")
        assert satisfies_all(repaired, customer_cfds)
        assert system.detect("customer").is_clean()

    def test_apply_repair_without_candidate_rejected(self, system):
        with pytest.raises(ConfigurationError):
            system.apply_repair("customer")

    def test_apply_reviewed_relation(self, system, customer_cfds):
        system.repair("customer")
        review = system.review("customer")
        reviewed = review.finalise()
        applied = system.apply_repair("customer", reviewed)
        assert applied.to_list() == reviewed.to_list()

    def test_clean_pipeline_summary(self, customer_relation, customer_cfds):
        semandaq = Semandaq()
        semandaq.register_relation(customer_relation.copy())
        semandaq.add_cfds(customer_cfds)
        summary = semandaq.clean("customer")
        assert summary["violations_before"] > 0
        assert summary["violations_after"] == 0
        assert summary["cells_changed"] > 0


class TestMonitoring:
    def test_monitor_detect_mode(self, system):
        monitor = system.monitor("customer")
        assert monitor.summary()["mode"] == "detect"

    def test_monitor_switches_to_repair_after_apply(self, system, customer_cfds):
        system.repair("customer")
        system.apply_repair("customer")
        monitor = system.monitor("customer")
        assert monitor.summary()["mode"] == "repair"
        relation = system.database.relation("customer")
        bad_row = dict(relation.get(2))
        bad_row["CNT"] = "FR"  # CC=01 but CNT=FR clashes with phi3 group
        monitor.apply_batch([Update.insert(bad_row)])
        assert not violating_tids(relation, customer_cfds)

    def test_monitor_explicit_mode_override(self, system):
        monitor = system.monitor("customer", cleansed=True)
        assert monitor.summary()["mode"] == "repair"
        system.monitor("customer", cleansed=False)
        assert monitor.summary()["mode"] == "detect"

    def test_apply_updates_facade_batch(self, system):
        relation = system.database.relation("customer")
        before = len(relation)
        template = dict(relation.get(relation.tids()[0]))
        tids = system.apply_updates(
            "customer",
            [
                Update.insert(dict(template, STR="A Brand New Street")),
                Update.delete(relation.tids()[1]),
            ],
        )
        assert len(tids) == 2 and tids[0] is not None
        assert len(relation) == before  # one in, one out
        assert len(system.monitor("customer").log) == 2


class TestClose:
    def test_calls_after_close_raise_backend_error(self, system):
        monitor = system.monitor("customer")
        system.close()
        system.close()  # idempotent
        with pytest.raises(BackendError, match="closed"):
            system.detect("customer")
        # the retired monitor was detached: it keeps maintaining its report
        # against the working store instead of shipping to the closed backend
        assert monitor.backend is None
        monitor.apply(Update.modify(0, {"CNT": "Narnia"}))
        assert not monitor.backend_desynced
        assert monitor.violations_involving(0)


class TestEndToEndOnGeneratedData:
    def test_full_workflow_reduces_dirtiness(self):
        clean = generate_customers(150, seed=71)
        noise = inject_noise(clean, rate=0.04, seed=72, attributes=["CNT", "CITY", "CC"])
        semandaq = Semandaq()
        semandaq.register_relation(noise.dirty)
        semandaq.add_cfds(paper_cfds())
        before = semandaq.audit("customer").dirty_percentage()
        semandaq.repair("customer")
        semandaq.apply_repair("customer")
        after = semandaq.audit("customer").dirty_percentage()
        assert after <= before
        assert after == 0.0 or semandaq.last_report("customer").total_violations() == 0
