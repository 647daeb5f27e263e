"""Tests for the Telemetry context: flags, tagging, plan capture, snapshots."""

import pytest

from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.telemetry import UNTAGGED_KIND, _NULL_SPAN


class _PlanBackend:
    """A stub backend whose explain hook returns canned plan rows."""

    def __init__(self, detail):
        self.detail = detail
        self.calls = []

    def explain_query_plan(self, sql, parameters=None):
        self.calls.append((sql, parameters))
        return self.detail


class TestFlags:
    def test_disabled_by_default(self):
        telemetry = Telemetry()
        assert not telemetry.enabled
        assert not telemetry.active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"enabled": True},
            {"explain_plans": True},
            {"log_sql": True},
        ],
    )
    def test_any_concern_makes_it_active(self, kwargs):
        assert Telemetry(**kwargs).active

    def test_null_telemetry_is_a_disabled_shared_instance(self):
        assert not NULL_TELEMETRY.active
        NULL_TELEMETRY.inc("should.be.noop")
        NULL_TELEMETRY.observe("also.noop", 1.0)
        NULL_TELEMETRY.record_statement("q_c", 1.0, rows=1, params=0)
        assert NULL_TELEMETRY.metrics.snapshot() == {"counters": {}, "histograms": {}}


class TestSpans:
    def test_span_is_shared_noop_when_disabled(self):
        telemetry = Telemetry(explain_plans=True)  # active but not enabled
        assert telemetry.span("detect") is _NULL_SPAN
        with telemetry.span("detect"):
            pass
        assert telemetry.tracer.roots == []

    def test_span_records_when_enabled(self):
        telemetry = Telemetry(enabled=True)
        with telemetry.span("detect", relation="customer"):
            with telemetry.span("statement"):
                pass
        assert len(telemetry.tracer.roots) == 1
        assert telemetry.tracer.roots[0].children[0].name == "statement"


class TestMetricsHelpers:
    def test_inc_and_observe_only_when_enabled(self):
        off = Telemetry()
        off.inc("sync.full")
        off.observe("statement_ms.q_c", 5.0)
        assert off.metrics.snapshot() == {"counters": {}, "histograms": {}}

        on = Telemetry(enabled=True)
        on.inc("sync.full")
        on.inc("sync.full", 2)
        on.observe("statement_ms.q_c", 5.0)
        assert on.metrics.counter_value("sync.full") == 3
        assert on.metrics.histogram("statement_ms.q_c").count == 1

    def test_record_statement_metric_names(self):
        telemetry = Telemetry(enabled=True)
        telemetry.record_statement("q_v", 2.0, rows=7, params=3)
        telemetry.record_statement("q_v", 4.0, rows=1, params=3)
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["counters"] == {
            "statement_params.q_v": 6,
            "statement_rows.q_v": 8,
            "statements": 2,
        }
        assert snapshot["histograms"]["statement_ms.q_v"]["count"] == 2
        assert snapshot["histograms"]["statement_ms.q_v"]["total"] == 6.0


class TestStatementTagging:
    def test_untagged_kind(self):
        assert Telemetry().statement_kind() == UNTAGGED_KIND

    def test_tag_applies_inside_block_and_restores(self):
        telemetry = Telemetry()
        with telemetry.tag_statements("q_c"):
            assert telemetry.statement_kind() == "q_c"
            with telemetry.tag_statements("covering_members"):
                assert telemetry.statement_kind() == "covering_members"
            assert telemetry.statement_kind() == "q_c"
        assert telemetry.statement_kind() == UNTAGGED_KIND

    def test_none_kind_keeps_surrounding_hint(self):
        telemetry = Telemetry()
        with telemetry.tag_statements("delta_multi"):
            with telemetry.tag_statements(None):
                assert telemetry.statement_kind() == "delta_multi"
            assert telemetry.statement_kind() == "delta_multi"

    def test_hint_restored_on_exception(self):
        telemetry = Telemetry()
        with pytest.raises(RuntimeError):
            with telemetry.tag_statements("q_c"):
                raise RuntimeError
        assert telemetry.statement_kind() == UNTAGGED_KIND


class TestPlanCapture:
    def test_capture_records_detail_and_index_verdict(self):
        telemetry = Telemetry(explain_plans=True)
        backend = _PlanBackend([{"detail": "SEARCH t USING INDEX idx_customer (CC=?)"}])
        telemetry.capture_plan(backend, "SELECT 1", ("44",), "covering_members")
        (plan,) = telemetry.plans
        assert plan["kind"] == "covering_members"
        assert plan["sql"] == "SELECT 1"
        assert plan["uses_index"] is True
        assert plan["detail"] == backend.detail
        assert telemetry.plans_for("covering_members") == [plan]
        assert telemetry.plans_for("q_c") == []

    def test_full_scan_flagged_as_no_index(self):
        telemetry = Telemetry(explain_plans=True)
        backend = _PlanBackend([{"detail": "SCAN t"}])
        telemetry.capture_plan(backend, "SELECT 1", None, "q_v")
        assert telemetry.plans[0]["uses_index"] is False

    def test_covering_index_scan_is_not_an_index_probe(self):
        # a SCAN reads the whole index; only a SEARCH step seeks it
        telemetry = Telemetry(explain_plans=True)
        backend = _PlanBackend(
            [{"detail": "SCAN t USING COVERING INDEX idx_r_A_B_D_dda0734b"}]
        )
        telemetry.capture_plan(backend, "SELECT 1", (7,), "q_c_sargable")
        assert telemetry.plans[0]["uses_index"] is False

    def test_any_search_step_counts_as_an_index_probe(self):
        telemetry = Telemetry(explain_plans=True)
        backend = _PlanBackend(
            [
                {"detail": "SCAN k"},
                {"detail": "SEARCH t USING INTEGER PRIMARY KEY (rowid=?)"},
            ]
        )
        telemetry.capture_plan(backend, "SELECT 1", None, "q_window")
        assert telemetry.plans[0]["uses_index"] is True

    def test_capture_dedupes_per_sql_text(self):
        telemetry = Telemetry(explain_plans=True)
        backend = _PlanBackend([{"detail": "SCAN t"}])
        telemetry.capture_plan(backend, "SELECT 1", None, "q_c")
        telemetry.capture_plan(backend, "SELECT 1", None, "q_c")
        telemetry.capture_plan(backend, "SELECT 2", None, "q_c")
        assert len(backend.calls) == 2
        assert len(telemetry.plans) == 2

    def test_backend_without_introspection_records_nothing(self):
        telemetry = Telemetry(explain_plans=True)
        telemetry.capture_plan(_PlanBackend(None), "SELECT 1", None, "q_c")
        assert telemetry.plans == []


class TestSnapshotAndReset:
    def test_snapshot_shape(self):
        telemetry = Telemetry(enabled=True, explain_plans=True)
        with telemetry.span("detect"):
            pass
        telemetry.record_statement("q_c", 1.0, rows=2, params=1)
        telemetry.capture_plan(
            _PlanBackend([{"detail": "SCAN t"}]), "SELECT 1", None, "q_c"
        )
        snapshot = telemetry.snapshot()
        assert set(snapshot) == {"enabled", "counters", "histograms", "spans", "plans"}
        assert snapshot["enabled"] is True
        assert snapshot["counters"]["statements"] == 1
        assert "statement_ms.q_c" in snapshot["histograms"]
        assert snapshot["spans"]["roots"][0]["name"] == "detect"
        assert snapshot["plans"][0]["sql"] == "SELECT 1"

    def test_reset_clears_recordings_but_not_flags(self):
        telemetry = Telemetry(enabled=True, explain_plans=True)
        with telemetry.span("detect"):
            pass
        telemetry.inc("statements")
        telemetry.capture_plan(
            _PlanBackend([{"detail": "SCAN t"}]), "SELECT 1", None, "q_c"
        )
        telemetry.reset()
        snapshot = telemetry.snapshot()
        assert snapshot["enabled"] is True
        assert snapshot["counters"] == {}
        assert snapshot["spans"] == {"roots": [], "dropped_roots": 0}
        assert snapshot["plans"] == []
        assert telemetry.active
