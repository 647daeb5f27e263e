"""End-to-end telemetry through the Semandaq facade on the SQLite backend."""

import logging

from repro import Semandaq, SemandaqConfig
from repro.obs import InstrumentedBackend


def _sqlite_system(customer_relation, customer_cfds, **flags):
    semandaq = Semandaq(SemandaqConfig(backend="sqlite", **flags))
    semandaq.register_relation(customer_relation)
    semandaq.add_cfds(customer_cfds)
    return semandaq


class TestDisabledDefault:
    def test_backend_not_wrapped_and_metrics_empty(self, customer_relation, customer_cfds):
        semandaq = _sqlite_system(customer_relation, customer_cfds)
        try:
            assert not isinstance(semandaq.backend, InstrumentedBackend)
            assert not semandaq.telemetry.active
            semandaq.detect("customer")
            snapshot = semandaq.metrics()
            assert snapshot["enabled"] is False
            assert snapshot["counters"] == {}
            assert snapshot["histograms"] == {}
            assert snapshot["plans"] == []
        finally:
            semandaq.close()


class TestEnabledMetrics:
    def test_detect_records_per_kind_histograms_and_counters(
        self, customer_relation, customer_cfds
    ):
        # pin the legacy plan family explicitly: this test is about the
        # classic Q_C/Q_V/covering-members statement kinds
        semandaq = _sqlite_system(
            customer_relation, customer_cfds, telemetry=True, detect_plan="legacy"
        )
        try:
            assert isinstance(semandaq.backend, InstrumentedBackend)
            report = semandaq.detect("customer")
            assert report.total_violations() >= 3
            snapshot = semandaq.metrics()
            assert snapshot["enabled"] is True
            # per-kind statement timings: the paper example exercises the
            # constant (Q_C), variable (Q_V) and member-enumeration shapes
            for kind in ("q_c", "q_v", "covering_members"):
                histogram = snapshot["histograms"][f"statement_ms.{kind}"]
                assert histogram["count"] >= 1
                assert histogram["total"] >= 0.0
                assert snapshot["counters"][f"statement_params.{kind}"] >= 0
            assert snapshot["counters"]["statements"] >= 3
            assert snapshot["counters"]["statement_rows.covering_members"] >= 2
            # plan-cache accounting: a cold detect compiles every plan
            assert snapshot["counters"]["plan_cache.misses"] >= 1
            assert snapshot["counters"]["detect.plan_variant.legacy"] >= 1
            # one bulk load shipped the relation into the backend
            assert snapshot["counters"]["sync.full"] >= 1
            # backend write instrumentation saw the bulk load and the
            # tableau materialisations
            assert snapshot["histograms"]["backend_ms.add_relation"]["count"] >= 1
        finally:
            semandaq.close()

    def test_detect_records_one_pass_kinds_under_auto(
        self, customer_relation, customer_cfds
    ):
        # auto resolves to the window family: sargable
        # Q_C plus the one-pass Q_V, no covering-members round trip
        # (detect_plan pinned so the SEMANDAQ_DETECT_PLAN CI leg cannot
        # flip the default under this test)
        semandaq = _sqlite_system(
            customer_relation, customer_cfds, telemetry=True, detect_plan="auto"
        )
        try:
            report = semandaq.detect("customer")
            assert report.total_violations() >= 3
            snapshot = semandaq.metrics()
            for kind in ("q_c_sargable", "q_window"):
                assert snapshot["histograms"][f"statement_ms.{kind}"]["count"] >= 1
            assert "statement_ms.covering_members" not in snapshot["histograms"]
            assert snapshot["counters"]["detect.plan_variant.window"] >= 1
        finally:
            semandaq.close()

    def test_repeated_detect_hits_the_plan_cache(self, customer_relation, customer_cfds):
        semandaq = _sqlite_system(customer_relation, customer_cfds, telemetry=True)
        try:
            semandaq.detect("customer")
            misses_after_first = semandaq.metrics()["counters"]["plan_cache.misses"]
            semandaq.detect("customer")
            snapshot = semandaq.metrics()
            assert snapshot["counters"]["plan_cache.hits"] >= 1
            # the warm detect compiled nothing new
            assert snapshot["counters"]["plan_cache.misses"] == misses_after_first
        finally:
            semandaq.close()

    def test_detect_span_recorded_with_statement_children(
        self, customer_relation, customer_cfds
    ):
        semandaq = _sqlite_system(customer_relation, customer_cfds, telemetry=True)
        try:
            semandaq.detect("customer")
            roots = semandaq.metrics()["spans"]["roots"]
            detect_spans = [root for root in roots if root["name"] == "detect"]
            assert detect_spans
            children = detect_spans[0].get("children", [])
            assert any(child["name"] == "statement" for child in children)
        finally:
            semandaq.close()

    def test_trace_and_reset_metrics_facade(self, customer_relation, customer_cfds):
        semandaq = _sqlite_system(customer_relation, customer_cfds, telemetry=True)
        try:
            with semandaq.trace("session", user="analyst"):
                semandaq.detect("customer")
            roots = semandaq.metrics()["spans"]["roots"]
            session_roots = [root for root in roots if root["name"] == "session"]
            assert session_roots
            assert any(
                child["name"] == "detect"
                for child in session_roots[0].get("children", [])
            )
            semandaq.reset_metrics()
            snapshot = semandaq.metrics()
            assert snapshot["counters"] == {}
            assert snapshot["spans"]["roots"] == []
        finally:
            semandaq.close()

    def test_identical_runs_have_identical_counters(
        self, customer_relation, customer_cfds
    ):
        def run():
            semandaq = _sqlite_system(
                customer_relation.copy(), customer_cfds, telemetry=True
            )
            try:
                semandaq.detect("customer")
                return semandaq.metrics()["counters"]
            finally:
                semandaq.close()

        assert run() == run()


class TestExplainPlans:
    def test_covering_members_plan_captured_with_index_usage(
        self, customer_relation, customer_cfds
    ):
        semandaq = _sqlite_system(
            customer_relation,
            customer_cfds,
            telemetry=True,
            explain_plans=True,
            detect_plan="legacy",
        )
        try:
            semandaq.detect("customer")
            plans = semandaq.metrics()["plans"]
            assert plans, "explain_plans mode captured nothing"
            covering = [plan for plan in plans if plan["kind"] == "covering_members"]
            assert covering, "no covering-members plan captured"
            # the detector builds the CFD-LHS index before executing, so the
            # member enumeration must be driven by an index
            assert any(plan["uses_index"] for plan in covering)
        finally:
            semandaq.close()

    def test_plans_not_captured_when_mode_off(self, customer_relation, customer_cfds):
        semandaq = _sqlite_system(customer_relation, customer_cfds, telemetry=True)
        try:
            semandaq.detect("customer")
            assert semandaq.metrics()["plans"] == []
        finally:
            semandaq.close()


class TestLogSql:
    def test_log_sql_emits_debug_statements(
        self, customer_relation, customer_cfds, caplog
    ):
        semandaq = _sqlite_system(customer_relation, customer_cfds, log_sql=True)
        try:
            # log_sql alone activates the instrumented backend…
            assert isinstance(semandaq.backend, InstrumentedBackend)
            with caplog.at_level(logging.DEBUG, logger="repro.obs.instrument"):
                semandaq.detect("customer")
            messages = [record.getMessage() for record in caplog.records]
            assert any("execute kind=q_c" in message for message in messages)
            # …but spans and metrics stay off
            snapshot = semandaq.metrics()
            assert snapshot["enabled"] is False
            assert snapshot["counters"] == {}
        finally:
            semandaq.close()

    def test_silent_without_log_sql(self, customer_relation, customer_cfds, caplog):
        semandaq = _sqlite_system(customer_relation, customer_cfds, telemetry=True)
        try:
            with caplog.at_level(logging.DEBUG, logger="repro.obs.instrument"):
                semandaq.detect("customer")
            assert not caplog.records
        finally:
            semandaq.close()
