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
        semandaq = _sqlite_system(customer_relation, customer_cfds, telemetry=True)
        try:
            assert isinstance(semandaq.backend, InstrumentedBackend)
            report = semandaq.detect("customer")
            assert report.total_violations() >= 3
            snapshot = semandaq.metrics()
            assert snapshot["enabled"] is True
            # per-kind statement timings: the paper example exercises the
            # constant (Q_C) and the one-pass variable (Q_V) shapes, and
            # the one-pass Q_V needs no member-enumeration round trip
            for kind in ("q_c_sargable", "q_window"):
                histogram = snapshot["histograms"][f"statement_ms.{kind}"]
                assert histogram["count"] >= 1
                assert histogram["total"] >= 0.0
                assert snapshot["counters"][f"statement_params.{kind}"] >= 0
            assert "statement_ms.covering_members" not in snapshot["histograms"]
            assert snapshot["counters"]["statements"] >= 3
            assert snapshot["counters"]["statement_rows.q_window"] >= 2
            # plan-cache accounting: a cold detect compiles every plan
            assert snapshot["counters"]["plan_cache.misses"] >= 1
            # one bulk load shipped the relation into the backend
            assert snapshot["counters"]["sync.full"] >= 1
            # backend write instrumentation saw the bulk load
            assert snapshot["histograms"]["backend_ms.add_relation"]["count"] >= 1
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
    def test_window_plan_captured_with_index_usage(
        self, customer_relation, customer_cfds
    ):
        semandaq = _sqlite_system(
            customer_relation, customer_cfds, telemetry=True, explain_plans=True
        )
        try:
            semandaq.detect("customer")
            plans = semandaq.metrics()["plans"]
            assert plans, "explain_plans mode captured nothing"
            window = [plan for plan in plans if plan["kind"] == "q_window"]
            assert window, "no one-pass Q_V plan captured"
            # the detector builds the CFD-LHS index before executing, so the
            # member join must be driven by an index
            assert all(plan["uses_index"] for plan in window)
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
