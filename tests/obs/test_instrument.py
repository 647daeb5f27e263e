"""Unit tests for the InstrumentedBackend proxy over SQLite."""

import pytest

from repro.backends import DeltaBatch, SqliteBackend
from repro.backends.base import StorageBackend
from repro.engine.types import RelationSchema
from repro.errors import BackendError
from repro.obs import InstrumentedBackend
from repro.obs.telemetry import Telemetry

SCHEMA = RelationSchema.of("r", ["A", "B"])


@pytest.fixture
def telemetry():
    return Telemetry(enabled=True)


@pytest.fixture
def proxy(telemetry):
    backend = InstrumentedBackend(SqliteBackend(), telemetry)
    backend.create_relation(SCHEMA, rows=[{"A": "x", "B": "1"}])
    yield backend
    backend.close()


def _histogram_count(telemetry, name):
    return telemetry.snapshot()["histograms"][name]["count"]


class TestInstrumentedBackend:
    def test_is_a_storage_backend_and_never_double_wraps(self, telemetry):
        inner = SqliteBackend()
        once = InstrumentedBackend(inner, telemetry)
        twice = InstrumentedBackend(once, telemetry)
        assert isinstance(twice, StorageBackend)
        assert twice.inner is inner
        inner.create_relation(SCHEMA)
        twice.execute("SELECT * FROM r")
        # one statement, recorded once
        assert telemetry.snapshot()["counters"]["statements"] == 1
        inner.close()

    def test_uninstrumented_attributes_pass_through(self, proxy):
        assert proxy.max_parameters == proxy.inner.max_parameters
        assert proxy.schema("r") == SCHEMA
        assert proxy.row_count("r") == 1

    def test_delta_batches_are_forwarded_and_timed(self, proxy, telemetry):
        batch = DeltaBatch("r")
        batch.record_insert(1, {"A": "y", "B": "2"})
        batch.record_update(0, {"B": "3"})
        proxy.apply_delta_batch("r", batch)
        assert proxy.inner.get_row("r", 1) == {"A": "y", "B": "2"}
        assert proxy.inner.get_row("r", 0)["B"] == "3"
        assert _histogram_count(telemetry, "backend_ms.apply_delta_batch") == 1
        counters = telemetry.snapshot()["counters"]
        assert counters["backend_rows.apply_delta_batch"] == 2

    def test_insert_many_counts_the_rows_it_wrote(self, proxy, telemetry):
        tids = proxy.insert_many("r", [{"A": "p"}, {"A": "q"}, {"A": "s"}])
        assert tids == [1, 2, 3]
        assert telemetry.snapshot()["counters"]["backend_rows.insert_many"] == 3
        assert _histogram_count(telemetry, "backend_ms.insert_many") == 1

    def test_catalog_ops_are_timed(self, proxy, telemetry):
        other = RelationSchema.of("s", ["C"])
        proxy.create_relation(other, rows=[{"C": "c"}])
        proxy.ensure_index("s", ["C"])
        proxy.drop_relation("s")
        assert not proxy.inner.has_relation("s")
        # the fixture's create_relation counts too
        assert _histogram_count(telemetry, "backend_ms.create_relation") == 2
        assert _histogram_count(telemetry, "backend_ms.ensure_index") == 1
        assert _histogram_count(telemetry, "backend_ms.drop_relation") == 1

    def test_statements_bucket_under_the_announced_kind(self, proxy, telemetry):
        with telemetry.tag_statements("row_fetch"):
            rows = proxy.execute("SELECT A FROM r WHERE _tid IN (?)", [0])
        assert rows == [{"A": "x"}]
        counters = telemetry.snapshot()["counters"]
        assert counters["statement_rows.row_fetch"] == 1
        assert counters["statement_params.row_fetch"] == 1
        assert _histogram_count(telemetry, "statement_ms.row_fetch") == 1

    def test_disabled_telemetry_forwards_without_recording(self):
        telemetry = Telemetry()
        with InstrumentedBackend(SqliteBackend(), telemetry) as proxy:
            proxy.create_relation(SCHEMA)
            proxy.insert_many("r", [{"A": "x"}])
            assert proxy.execute("SELECT COUNT(*) AS n FROM r") == [{"n": 1}]
        snapshot = telemetry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["histograms"] == {}

    def test_context_manager_closes_the_inner_backend(self, telemetry):
        inner = SqliteBackend()
        with InstrumentedBackend(inner, telemetry) as proxy:
            proxy.create_relation(SCHEMA)
        with pytest.raises(BackendError, match="closed"):
            inner.execute("SELECT 1")
