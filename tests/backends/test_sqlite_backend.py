"""Tests for the SQLite storage backend: round trips, tid stability, bulk load."""

import sqlite3

import pytest

from repro.backends import SqliteBackend
from repro.core.tableau import tableau_to_relation
from repro.datasets import generate_customers, paper_cfds
from repro.engine.csvio import load_csv_into
from repro.engine.relation import Relation
from repro.engine.types import AttributeDef, DataType, RelationSchema
from repro.backends.delta import DeltaBatch
from repro.errors import (
    BackendError,
    ConstraintViolationError,
    DuplicateRelationError,
    SqlExecutionError,
    TypeMismatchError,
    UnknownAttributeError,
    UnknownRelationError,
    UnknownTupleError,
    UnsupportedSqliteError,
)

SCHEMA = RelationSchema(
    "mixed",
    [
        AttributeDef("S", DataType.STRING),
        AttributeDef("I", DataType.INTEGER),
        AttributeDef("F", DataType.FLOAT),
        AttributeDef("B", DataType.BOOLEAN),
    ],
)

ROWS = [
    {"S": "a", "I": 1, "F": 1.5, "B": True},
    {"S": "b", "I": 2, "F": 2.0, "B": False},
    {"S": None, "I": None, "F": None, "B": None},
]


@pytest.fixture
def backend():
    instance = SqliteBackend()
    yield instance
    instance.close()


class TestVersionGate:
    def test_sqlite_older_than_3_25_raises(self, monkeypatch):
        # 3.25 is the supported floor (the SQL itself needs row values, 3.15)
        monkeypatch.setattr(sqlite3, "sqlite_version_info", (3, 24, 0))
        monkeypatch.setattr(sqlite3, "sqlite_version", "3.24.0")
        with pytest.raises(UnsupportedSqliteError, match="3.24.0"):
            SqliteBackend()

    def test_sqlite_3_25_is_accepted(self, monkeypatch):
        monkeypatch.setattr(sqlite3, "sqlite_version_info", (3, 25, 0))
        SqliteBackend().close()


class TestCatalog:
    def test_create_list_drop(self, backend):
        backend.create_relation(SCHEMA)
        assert backend.has_relation("mixed")
        assert backend.relation_names() == ["mixed"]
        assert backend.schema("mixed").attribute_names == ["S", "I", "F", "B"]
        backend.drop_relation("mixed")
        assert not backend.has_relation("mixed")

    def test_duplicate_requires_replace(self, backend):
        backend.create_relation(SCHEMA)
        with pytest.raises(DuplicateRelationError):
            backend.create_relation(SCHEMA)
        backend.create_relation(SCHEMA, replace=True)  # does not raise

    def test_unknown_relation_raises(self, backend):
        with pytest.raises(UnknownRelationError):
            backend.drop_relation("ghost")
        with pytest.raises(UnknownRelationError):
            backend.to_relation("ghost")

    def test_invalid_identifier_rejected(self, backend):
        bad = RelationSchema('evil"name', [AttributeDef("A")])
        with pytest.raises(BackendError):
            backend.create_relation(bad)


class TestRowsAndTids:
    def test_bulk_load_round_trip(self, backend):
        backend.create_relation(SCHEMA)
        tids = backend.insert_many("mixed", ROWS)
        assert tids == [0, 1, 2]
        assert backend.row_count("mixed") == 3
        stored = dict(backend.iter_rows("mixed"))
        assert stored[0] == ROWS[0]
        assert stored[1] == ROWS[1]
        assert stored[2] == ROWS[2]
        assert backend.get_row("mixed", 1)["B"] is False

    def test_tids_continue_across_batches(self, backend):
        backend.create_relation(SCHEMA)
        assert backend.insert_many("mixed", ROWS[:2]) == [0, 1]
        assert backend.insert_many("mixed", ROWS[2:]) == [2]

    def test_unknown_tid_raises(self, backend):
        backend.create_relation(SCHEMA)
        with pytest.raises(UnknownTupleError):
            backend.get_row("mixed", 99)

    def test_add_relation_preserves_gappy_tids(self, backend):
        relation = Relation.from_rows(SCHEMA, ROWS)
        relation.delete(1)  # leave a gap
        backend.add_relation(relation)
        assert [tid for tid, _row in backend.iter_rows("mixed")] == [0, 2]
        # new inserts continue after the highest stored tid
        assert backend.insert_many("mixed", [ROWS[1]]) == [3]

    def test_to_relation_round_trip(self, backend):
        relation = Relation.from_rows(SCHEMA, ROWS)
        relation.delete(0)
        backend.add_relation(relation)
        restored = backend.to_relation("mixed")
        assert restored.tids() == relation.tids()
        assert restored.get(1) == relation.get(1)
        assert restored.get(2) == relation.get(2)


class TestQueriesAndIndexes:
    def test_execute_with_parameters(self, backend):
        backend.create_relation(SCHEMA, rows=ROWS)
        rows = backend.execute("SELECT S, I FROM mixed WHERE I >= ?", [2])
        assert rows == [{"S": "b", "I": 2}]

    def test_execute_ddl_returns_empty(self, backend):
        assert backend.execute("CREATE TABLE scratch (x INTEGER)") == []

    def test_execute_bad_sql_raises_engine_error_type(self, backend):
        with pytest.raises(SqlExecutionError):
            backend.execute("SELECT * FROM nowhere_at_all")

    def _index_names(self, backend):
        return {
            row["name"]
            for row in backend.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            )
        }

    def test_ensure_index_is_idempotent_and_validated(self, backend):
        backend.create_relation(SCHEMA, rows=ROWS)
        backend.ensure_index("mixed", ["S", "I"])
        backend.ensure_index("mixed", ["S", "I"])  # no error on repeat
        assert sum(
            name.startswith("idx_mixed_S_I") for name in self._index_names(backend)
        ) == 1
        with pytest.raises(Exception):
            backend.ensure_index("mixed", ["NOPE"])

    def test_distinct_attribute_lists_get_distinct_indexes(self, backend):
        schema = RelationSchema("tricky", [AttributeDef("a_b"), AttributeDef("a"), AttributeDef("b")])
        backend.create_relation(schema)
        backend.ensure_index("tricky", ["a_b"])
        backend.ensure_index("tricky", ["a", "b"])
        assert sum(
            name.startswith("idx_tricky_") for name in self._index_names(backend)
        ) == 2

    def test_wal_and_synchronous_pragmas(self, tmp_path):
        backend = SqliteBackend(path=str(tmp_path / "pragmas.db"))
        try:
            assert backend.execute("PRAGMA journal_mode")[0]["journal_mode"] == "wal"
            assert backend.execute("PRAGMA synchronous")[0]["synchronous"] == 1
        finally:
            backend.close()

    def test_key_enforced_as_unique_index(self, backend):
        keyed = RelationSchema(
            "keyed", [AttributeDef("K"), AttributeDef("V")], key=("K",)
        )
        backend.create_relation(keyed, rows=[{"K": "a", "V": "1"}])
        # same error type the working store's Relation raises for a duplicate key
        with pytest.raises(ConstraintViolationError):
            backend.insert_many("keyed", [{"K": "a", "V": "2"}])

    def test_failed_bulk_insert_rolls_back_and_backend_stays_usable(self, backend):
        keyed = RelationSchema(
            "keyed", [AttributeDef("K"), AttributeDef("V")], key=("K",)
        )
        backend.create_relation(keyed, rows=[{"K": "a", "V": "1"}])
        with pytest.raises(ConstraintViolationError):
            backend.insert_many("keyed", [{"K": "b", "V": "2"}, {"K": "a", "V": "3"}])
        # the partial batch was rolled back ...
        assert backend.row_count("keyed") == 1
        # ... and a valid retry succeeds with a consistent tid
        assert backend.insert_many("keyed", [{"K": "c", "V": "4"}]) == [1]


KEYED = RelationSchema("keyed", [AttributeDef("K"), AttributeDef("V")], key=("K",))


class TestErrorMapping:
    """sqlite3 errors surface as the typed ``repro.errors`` hierarchy, and a
    failed write leaves the stored rows untouched."""

    def test_update_onto_a_taken_key_is_a_constraint_violation(self, backend):
        backend.create_relation(
            KEYED, rows=[{"K": "a", "V": "1"}, {"K": "b", "V": "2"}]
        )
        with pytest.raises(ConstraintViolationError):
            backend.update_row("keyed", 1, {"K": "a"})
        assert backend.get_row("keyed", 1) == {"K": "b", "V": "2"}
        backend.update_row("keyed", 1, {"V": "3"})  # still writable
        assert backend.get_row("keyed", 1)["V"] == "3"

    def test_update_of_an_unknown_attribute_raises(self, backend):
        backend.create_relation(SCHEMA, rows=ROWS)
        with pytest.raises(UnknownAttributeError):
            backend.update_row("mixed", 0, {"NOPE": 1})

    def test_update_value_is_coerced_to_the_column_type(self, backend):
        backend.create_relation(SCHEMA, rows=ROWS)
        backend.update_row("mixed", 0, {"I": "42", "F": 3})
        assert backend.get_row("mixed", 0)["I"] == 42
        assert backend.get_row("mixed", 0)["F"] == 3.0
        with pytest.raises(TypeMismatchError):
            backend.update_row("mixed", 0, {"I": "forty-two"})
        assert backend.get_row("mixed", 0)["I"] == 42

    def test_batch_onto_a_taken_key_rolls_back_whole(self, backend):
        backend.create_relation(
            KEYED, rows=[{"K": "a", "V": "1"}, {"K": "b", "V": "2"}]
        )
        batch = DeltaBatch("keyed")
        batch.record_update(0, {"V": "changed"})
        batch.record_update(1, {"K": "a"})
        with pytest.raises(ConstraintViolationError):
            backend.apply_delta_batch("keyed", batch)
        assert dict(backend.iter_rows("keyed")) == {
            0: {"K": "a", "V": "1"},
            1: {"K": "b", "V": "2"},
        }

    def test_dml_through_execute_maps_integrity_errors(self, backend):
        backend.create_relation(KEYED, rows=[{"K": "a", "V": "1"}])
        with pytest.raises(ConstraintViolationError):
            backend.execute(
                "INSERT INTO keyed (_tid, K, V) VALUES (?, ?, ?)", [5, "a", "x"]
            )
        assert backend.row_count("keyed") == 1

    def test_wrong_binding_count_is_an_execution_error(self, backend):
        backend.create_relation(SCHEMA, rows=ROWS)
        with pytest.raises(SqlExecutionError):
            backend.execute("SELECT S FROM mixed WHERE I = ? AND F = ?", [1])

    def test_pooled_reader_maps_errors_too(self, tmp_path):
        # one reader and a short timeout: a reader leaked by the failed
        # statement would make the next read time out
        backend = SqliteBackend(
            path=str(tmp_path / "pooled.db"), pool_size=1, pool_timeout=0.5
        )
        try:
            backend.create_relation(SCHEMA, rows=ROWS)
            with pytest.raises(SqlExecutionError):
                backend.execute("SELECT * FROM nowhere_at_all")
            assert backend.execute("SELECT S FROM mixed WHERE I = ?", [2]) == [
                {"S": "b"}
            ]
        finally:
            backend.close()


class TestClosedBackend:
    """Every call after ``close()`` raises the typed ``BackendError``."""

    @pytest.fixture
    def closed(self):
        instance = SqliteBackend()
        instance.create_relation(SCHEMA, rows=ROWS)
        instance.close()
        return instance

    def test_catalog_and_index_calls_raise(self, closed):
        with pytest.raises(BackendError, match="closed"):
            closed.row_count("mixed")
        with pytest.raises(BackendError, match="closed"):
            closed.ensure_index("mixed", ["S"])
        with pytest.raises(BackendError, match="closed"):
            closed.create_relation(KEYED)

    def test_delta_batch_raises_before_touching_the_connection(self, closed):
        batch = DeltaBatch("mixed")
        batch.record_update(0, {"S": "changed"})
        with pytest.raises(BackendError, match="closed"):
            closed.apply_delta_batch("mixed", batch)

    def test_execute_and_read_connection_raise(self, closed):
        with pytest.raises(BackendError, match="closed"):
            closed.execute("SELECT 1")
        with pytest.raises(BackendError, match="closed"):
            with closed.read_connection():
                pass  # pragma: no cover

    def test_close_is_idempotent(self, closed):
        closed.close()
        with pytest.raises(BackendError, match="closed"):
            closed.get_row("mixed", 0)


class TestReadConnection:
    def test_nested_blocks_reuse_the_pinned_reader(self, tmp_path):
        # with a single reader, a nested block that checked out a second
        # connection would time out instead of re-entering
        backend = SqliteBackend(
            path=str(tmp_path / "nested.db"), pool_size=1, pool_timeout=0.5
        )
        try:
            backend.create_relation(SCHEMA, rows=ROWS)
            with backend.read_connection(snapshot=True) as outer:
                with backend.read_connection() as inner:
                    assert inner is outer
                    assert backend.row_count("mixed") == 3
                # still pinned after the inner block returns
                with backend.read_connection() as again:
                    assert again is outer
            with backend.read_connection() as after:
                assert after is outer  # released back to the pool
        finally:
            backend.close()

    def test_snapshot_block_does_not_see_later_commits(self, tmp_path):
        backend = SqliteBackend(path=str(tmp_path / "snapshot.db"), pool_size=2)
        try:
            backend.create_relation(SCHEMA, rows=ROWS)
            with backend.read_connection(snapshot=True):
                assert backend.row_count("mixed") == 3
                backend.insert_many("mixed", [{"S": "late"}])
                assert backend.row_count("mixed") == 3
            assert backend.row_count("mixed") == 4
        finally:
            backend.close()


class TestCsvBulkLoad:
    def test_load_csv_into_backend(self, backend):
        csv_text = "A,N\nx,1\ny,2\n,3\n"
        tids = load_csv_into(backend, csv_text, "loaded")
        assert tids == [0, 1, 2]
        assert backend.schema("loaded").attribute("N").dtype is DataType.INTEGER
        assert backend.get_row("loaded", 2)["A"] is None
        assert backend.row_count("loaded") == 3

    def test_load_csv_into_persists_on_disk(self, tmp_path):
        path = tmp_path / "store.db"
        backend = SqliteBackend(path=str(path))
        load_csv_into(backend, "A,B\n1,2\n", "disk_rel")
        backend.close()
        assert path.exists()


class TestReopen:
    def test_reopen_ignores_tables_without_tids(self, tmp_path):
        path = str(tmp_path / "foreign.db")
        first = SqliteBackend(path=path)
        first.create_relation(SCHEMA, rows=ROWS)
        first.execute("CREATE TABLE notes (body TEXT)")
        first.close()

        second = SqliteBackend(path=path)
        try:
            assert second.relation_names() == ["mixed"]
        finally:
            second.close()

    def test_reopen_recovers_catalog_and_tids(self, tmp_path):
        path = str(tmp_path / "persist.db")
        first = SqliteBackend(path=path)
        first.create_relation(SCHEMA, rows=ROWS)
        first.close()

        second = SqliteBackend(path=path)
        try:
            assert second.has_relation("mixed")
            assert second.row_count("mixed") == 3
            # schema reconstructed from column affinities (BOOLEAN reopens
            # as INTEGER — values survive, boolean typing does not)
            assert second.schema("mixed").attribute("S").dtype is DataType.STRING
            assert second.schema("mixed").attribute("F").dtype is DataType.FLOAT
            # tid counter continues after the highest stored tid
            assert second.insert_many("mixed", [{"S": "d"}]) == [3]
            # replace works against a table created by a previous session
            second.create_relation(SCHEMA, rows=ROWS[:1], replace=True)
            assert second.row_count("mixed") == 1
        finally:
            second.close()

    def test_orphaned_tableaux_dropped_on_reopen(self, tmp_path):
        # stores written before detection stopped materialising pattern
        # tableaux still hold them; reopening must not adopt them as user
        # relations
        path = str(tmp_path / "orphan.db")
        first = SqliteBackend(path=path)
        first.add_relation(generate_customers(10, seed=57))
        first.add_relation(tableau_to_relation(paper_cfds()[0], "__semandaq_old_0"))
        first.close()
        with SqliteBackend(path=path) as reopened:
            assert reopened.relation_names() == ["customer"]
