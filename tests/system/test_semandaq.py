"""Tests for the Semandaq facade: the end-to-end workflow of the demo."""

import pytest

from repro import Semandaq, SemandaqConfig
from repro.core.satisfaction import satisfies_all, violating_tids
from repro.datasets import generate_customers, inject_noise, paper_cfds
from repro.detection.detector import ErrorDetector
from repro.engine.csvio import dump_csv
from repro.engine.types import RelationSchema
from repro.errors import BackendError, ConfigurationError
from repro.monitor.updates import Update


class TestConnectAndSpecify:
    def test_register_relation_and_schema_summary(self, system):
        assert system.schema_summary() == {
            "customer": ["NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"]
        }

    def test_load_csv(self, sqlite_config, customer_relation):
        semandaq = Semandaq(sqlite_config())
        semandaq.load_csv(dump_csv(customer_relation), "customer")
        assert "customer" in semandaq.schema_summary()

    def test_add_cfd_from_text(self, sqlite_config, customer_relation):
        semandaq = Semandaq(sqlite_config())
        semandaq.register_relation(customer_relation)
        cfd = semandaq.add_cfd("customer: [CC='44'] -> [CNT='UK']")
        assert cfd.relation == "customer"
        assert semandaq.check_constraints("customer").consistent

    def test_discover_cfds(self, sqlite_config):
        semandaq = Semandaq(sqlite_config())
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

    def test_detect_for_tuples_facade_on_sqlite(
        self, sqlite_config, customer_relation, customer_cfds
    ):
        semandaq = Semandaq(sqlite_config())
        semandaq.register_relation(customer_relation)
        semandaq.add_cfds(customer_cfds)
        restricted = semandaq.detect_for_tuples("customer", [4])
        assert restricted.total_violations() >= 1
        assert all(4 in violation.tids for violation in restricted.violations)
        semandaq.close()

    def test_native_detection_configuration(
        self, sqlite_config, customer_relation, customer_cfds
    ):
        semandaq = Semandaq(sqlite_config(use_sql_detection=False))
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

    def test_clean_pipeline_summary(
        self, sqlite_config, customer_relation, customer_cfds
    ):
        semandaq = Semandaq(sqlite_config())
        semandaq.register_relation(customer_relation.copy())
        semandaq.add_cfds(customer_cfds)
        summary = semandaq.clean("customer")
        assert summary["violations_before"] > 0
        assert summary["violations_after"] == 0
        assert summary["cells_changed"] > 0


class TestReplacingARelationDropsItsRepair:
    """A candidate repair describes the data it was planned over.

    Replacing the relation drops it: ``apply_repair`` refuses to run,
    ``review`` plans a new repair and a new monitor starts in detect mode.
    """

    @pytest.mark.parametrize("use_sql", [True, False], ids=["sql", "native"])
    @pytest.mark.parametrize("replace_by", ["register_relation", "load_csv"])
    def test_the_old_repair_never_reaches_the_new_data(
        self, sqlite_config, use_sql, replace_by
    ):
        system = Semandaq(sqlite_config(use_sql_detection=use_sql))
        dirty = inject_noise(
            generate_customers(200, seed=511), rate=0.1, seed=512, attributes=["CITY"]
        ).dirty
        fresh = generate_customers(200, seed=513)
        try:
            system.register_relation(dirty)
            system.add_cfds(paper_cfds())
            assert system.repair("customer").changes
            if replace_by == "register_relation":
                system.register_relation(fresh.copy(), replace=True)
            else:
                system.load_csv(dump_csv(fresh), "customer", infer_types=False)
            with pytest.raises(ConfigurationError, match="call repair"):
                system.apply_repair("customer")
            assert system.monitor("customer").summary()["mode"] == "detect"
            assert system.review("customer").modified_cells() == []
            assert system.database.relation("customer").to_list() == fresh.to_list()
            assert sorted(system.backend.iter_rows("customer")) == sorted(
                fresh.rows()
            )
        finally:
            system.close()


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


class TestMarkBackendStaleRefreshesTheMonitor:
    """After a direct edit of the working relation, ``mark_backend_stale``
    rebuilds a live monitor's violation state in place."""

    @pytest.mark.parametrize("use_sql", [True, False], ids=["sql", "native"])
    def test_a_held_monitor_sees_a_direct_edit(self, sqlite_config, use_sql):
        system = Semandaq(sqlite_config(use_sql_detection=use_sql))
        system.register_relation(generate_customers(200, seed=1))
        system.add_cfds(paper_cfds())
        relation = system.database.relation("customer")
        edited, other = relation.tids()[:2]
        city = relation.get(edited)["CITY"]
        held = system.monitor("customer")
        held.apply_batch([Update.modify(other, {"NAME": "Someone Else"})])
        relation.update(edited, {"CITY": "Nowhere"})
        system.mark_backend_stale("customer")
        detected = system.detect("customer")
        assert detected.total_violations() == 1
        assert _violations(held.current_report()) == _violations(detected)
        # the same monitor, with its log, keeps shipping to the backend
        assert system.monitor("customer") is held
        held.apply_batch([Update.modify(edited, {"CITY": city})])
        assert len(held.log) == 2
        assert held.current_report().total_violations() == 0
        assert system.detect("customer").total_violations() == 0
        assert dict(system.backend.iter_rows("customer")) == dict(relation.rows())
        system.close()


class TestMonitorFollowsTheCfds:
    """A monitor built before a CFD change switches to the new set in place.

    ``r(A, B, C)`` holds ``(x, 1, p)`` and ``(x, 2, p)``: ``[C] -> [A]``
    holds on it and ``[A] -> [B]`` has one violation.
    """

    ROWS = [{"A": "x", "B": "1", "C": "p"}, {"A": "x", "B": "2", "C": "p"}]

    def _system(self, sqlite_config, use_sql):
        system = Semandaq(
            sqlite_config(use_sql_detection=use_sql, check_consistency_on_add=False)
        )
        system.register_relation(RelationSchema.of("r", ["A", "B", "C"]), self.ROWS)
        system.add_cfd("r: [C=_] -> [A=_]")
        return system

    @pytest.mark.parametrize("use_sql", [True, False], ids=["sql", "native"])
    def test_an_added_cfd_reaches_the_monitor(self, sqlite_config, use_sql):
        system = self._system(sqlite_config, use_sql)
        system.monitor("r", cleansed=True)
        system.add_cfd("r: [A=_] -> [B=_]")
        monitor = system.monitor("r")
        assert monitor.current_report().total_violations() == 1
        assert system.detect("r").total_violations() == 1
        assert monitor.cleansed  # the switch keeps the mode
        system.close()

    @pytest.mark.parametrize("use_sql", [True, False], ids=["sql", "native"])
    def test_a_removed_cfd_leaves_the_monitor(self, sqlite_config, use_sql):
        system = self._system(sqlite_config, use_sql)
        added = system.add_cfd("r: [A=_] -> [B=_]")
        assert system.monitor("r").current_report().total_violations() == 1
        system.constraints.remove(added.identifier)
        assert system.monitor("r").current_report().total_violations() == 0
        assert system.detect("r").total_violations() == 0
        system.close()

    @pytest.mark.parametrize("use_sql", [True, False], ids=["sql", "native"])
    def test_a_batch_after_a_cfd_change_is_detected_under_the_new_set(
        self, sqlite_config, use_sql
    ):
        system = self._system(sqlite_config, use_sql)
        system.monitor("r")
        system.add_cfd("r: [A=_] -> [B=_]")
        system.apply_updates("r", [Update.insert({"A": "y", "B": "1", "C": "q"})])
        assert system.monitor("r").current_report().total_violations() == 1
        assert system.last_report("r").total_violations() == 1
        system.close()

    @pytest.mark.parametrize("use_sql", [True, False], ids=["sql", "native"])
    def test_a_held_monitor_keeps_shipping_after_a_cfd_change(
        self, sqlite_config, use_sql
    ):
        system = self._system(sqlite_config, use_sql)
        held = system.monitor("r")
        held.apply_batch([Update.insert({"A": "y", "B": "1", "C": "q"})])
        system.add_cfd("r: [A=_] -> [B=_]")
        assert system.monitor("r") is held
        held.apply_batch([Update.insert({"A": "y", "B": "2", "C": "q"})])
        assert len(held.log) == 2 and held.changes_applied == 2
        cfds = system.constraints.cfds("r")
        native = ErrorDetector(system.database).detect("r", cfds)
        # on the SQL system detect() reads the backend copy, which only
        # the held monitor's deltas bring up to date
        assert _violations(system.detect("r")) == _violations(native)
        assert _violations(held.current_report()) == _violations(native)
        assert native.total_violations() == 2
        system.close()


def _violations(report):
    return sorted(
        (v.cfd_id, v.kind, v.rhs_attribute, v.tids) for v in report.violations
    )


class TestApplyUpdatesRefreshesReport:
    """``apply_updates`` drops the cached report: it describes the old data."""

    ROWS = [
        {"NAME": "Mike", "CNT": "UK", "CITY": "EDI", "ZIP": "EH4 1DT"},
        {"NAME": "Rick", "CNT": "UK", "CITY": "LDN", "ZIP": "EH4 1DT"},
        {"NAME": "Joe", "CNT": "US", "CITY": "NYC", "ZIP": "01202"},
        {"NAME": "Mary", "CNT": "US", "CITY": "NYC", "ZIP": "02299"},
    ]

    @pytest.mark.parametrize("use_sql", [True, False], ids=["sql", "native"])
    def test_report_audit_and_explorer_see_the_updates(self, sqlite_config, use_sql):
        system = Semandaq(sqlite_config(use_sql_detection=use_sql))
        schema = RelationSchema.of(
            "customer", ["NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"]
        )
        system.register_relation(schema, self.ROWS)
        system.add_cfd("customer: [CNT=_, ZIP=_] -> [CITY=_]")
        assert system.detect("customer").total_violations() == 1
        assert system.audit("customer").statistics["dirty_tuples"] == 2.0

        system.apply_updates("customer", [Update.modify(1, {"CITY": "EDI"})])

        assert system.last_report("customer").total_violations() == 0
        statistics = system.audit("customer").statistics
        assert statistics["total_violations"] == 0.0
        assert statistics["dirty_tuples"] == 0.0
        summaries = system.explorer("customer").list_cfds()
        assert [summary.violating_tuples for summary in summaries] == [0]
        assert system.monitor("customer").current_report().total_violations() == 0
        system.close()


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
    def test_full_workflow_reduces_dirtiness(self, sqlite_config):
        clean = generate_customers(150, seed=71)
        noise = inject_noise(clean, rate=0.04, seed=72, attributes=["CNT", "CITY", "CC"])
        semandaq = Semandaq(sqlite_config())
        semandaq.register_relation(noise.dirty)
        semandaq.add_cfds(paper_cfds())
        before = semandaq.audit("customer").dirty_percentage()
        semandaq.repair("customer")
        semandaq.apply_repair("customer")
        after = semandaq.audit("customer").dirty_percentage()
        assert after <= before
        assert after == 0.0 or semandaq.last_report("customer").total_violations() == 0
