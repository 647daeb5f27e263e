"""The DeltaBatch changeset: coalescing rules and grouped backend application.

``DeltaBatch`` is the first-class changeset of the update path: it records
the *net* per-tuple effect of an update batch and ships to a backend in one
``apply_delta_batch`` round trip — a single transaction on SQLite
(``executemany`` per op kind, one commit) instead of one commit per
statement.  These tests pin the coalescing algebra, the grouped
application's parity with per-statement replay, SQLite's transactional
atomicity and single-commit behaviour, and the backend context-manager
protocol.
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import DeltaBatch, SqliteBackend, StorageBackend
from repro.engine.relation import Relation
from repro.engine.types import AttributeDef, DataType, RelationSchema
from repro.errors import BackendError, ConstraintViolationError, UnknownTupleError


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


class TestCoalescing:
    def test_insert_then_update_collapses_to_one_insert(self):
        batch = DeltaBatch("items")
        batch.record_insert(3, {"NAME": "screw", "QTY": 1, "OK": True})
        batch.record_update(3, {"QTY": 9})
        assert batch.inserts == [(3, {"NAME": "screw", "QTY": 9, "OK": True})]
        assert batch.updates == []
        assert batch.deletes == []
        assert len(batch) == 1
        assert batch.statement_count == 1

    def test_insert_then_delete_cancels_out(self):
        batch = DeltaBatch("items")
        batch.record_insert(3, {"NAME": "screw", "QTY": 1, "OK": True})
        batch.record_delete(3)
        assert batch.is_empty()
        # the tid is free again: a later insert is a plain insert
        batch.record_insert(3, {"NAME": "pin", "QTY": 2, "OK": False})
        assert batch.inserts == [(3, {"NAME": "pin", "QTY": 2, "OK": False})]

    def test_updates_merge(self):
        batch = DeltaBatch("items")
        batch.record_update(0, {"QTY": 9})
        batch.record_update(0, {"OK": False, "QTY": 11})
        assert batch.updates == [(0, {"QTY": 11, "OK": False})]
        assert batch.statement_count == 1

    def test_update_then_delete_is_a_delete(self):
        batch = DeltaBatch("items")
        batch.record_update(0, {"QTY": 9})
        batch.record_delete(0)
        assert batch.deletes == [0]
        assert batch.updates == []

    def test_delete_then_insert_is_a_replace(self):
        batch = DeltaBatch("items")
        batch.record_delete(0)
        batch.record_insert(0, {"NAME": "new bolt", "QTY": 1, "OK": False})
        assert batch.deletes == [0]
        assert batch.inserts == [(0, {"NAME": "new bolt", "QTY": 1, "OK": False})]
        assert batch.statement_count == 2
        assert len(batch) == 1
        # updates keep merging into the replace's insert half
        batch.record_update(0, {"QTY": 4})
        assert batch.inserts == [(0, {"NAME": "new bolt", "QTY": 4, "OK": False})]

    def test_empty_update_is_a_no_op(self):
        batch = DeltaBatch("items")
        batch.record_update(0, {})
        assert batch.is_empty()

    def test_illegal_sequences_raise(self):
        batch = DeltaBatch("items")
        batch.record_insert(1, {"NAME": "x", "QTY": 1, "OK": True})
        with pytest.raises(BackendError):
            batch.record_insert(1, {"NAME": "y", "QTY": 2, "OK": True})
        batch.record_delete(2)
        with pytest.raises(BackendError):
            batch.record_update(2, {"QTY": 9})
        with pytest.raises(BackendError):
            batch.record_delete(2)

    def test_grouped_updates_share_statement_shapes(self):
        batch = DeltaBatch("items")
        batch.record_update(0, {"QTY": 1})
        batch.record_update(1, {"QTY": 2})
        batch.record_update(2, {"OK": False, "QTY": 3})
        groups = dict(batch.grouped_updates())
        assert set(groups) == {("QTY",), ("OK", "QTY")}
        assert groups[("QTY",)] == [(0, {"QTY": 1}), (1, {"QTY": 2})]


def _mixed_batch():
    """Insert + update + delete + replace, all in one changeset."""
    batch = DeltaBatch("items")
    batch.record_insert(3, {"NAME": "screw", "QTY": 9, "OK": False})
    batch.record_update(3, {"QTY": 10})
    batch.record_update(0, {"QTY": 6})
    batch.record_delete(1)
    batch.record_delete(2)
    batch.record_insert(2, {"NAME": "new washer", "QTY": 1, "OK": False})
    return batch


class TestApplyDeltaBatch:
    def test_application_matches_per_statement_ops(self, backend):
        backend.apply_delta_batch("items", _mixed_batch())
        oracle = Relation.from_rows(SCHEMA, ROWS)
        oracle.insert_at(3, {"NAME": "screw", "QTY": 10, "OK": False})
        oracle.update(0, {"QTY": 6})
        oracle.delete(1)
        oracle.delete(2)
        oracle.insert_at(2, {"NAME": "new washer", "QTY": 1, "OK": False})
        assert list(backend.iter_rows("items")) == list(oracle.rows())

    def test_grouped_path_matches_base_loop(self, backend):
        # SQLite's one-transaction override against the interface's
        # per-statement loop
        looped = _loaded(SqliteBackend())
        backend.apply_delta_batch("items", _mixed_batch())
        StorageBackend.apply_delta_batch(looped, "items", _mixed_batch())
        assert list(backend.iter_rows("items")) == list(looped.iter_rows("items"))
        looped.close()

    def test_empty_batch_is_a_no_op(self, backend):
        before = list(backend.iter_rows("items"))
        backend.apply_delta_batch("items", DeltaBatch("items"))
        assert list(backend.iter_rows("items")) == before

    def test_empty_coalesced_batch_opens_no_transaction(self):
        # a batch that nets out to nothing (insert + delete of the same
        # tid) must not touch the connection: no statements, no write
        # transaction, no commit
        backend = _loaded(SqliteBackend())
        batch = DeltaBatch("items")
        batch.record_insert(3, {"NAME": "ghost", "QTY": 1, "OK": True})
        batch.record_update(3, {"QTY": 2})
        batch.record_delete(3)
        assert batch.is_empty()
        statements, commits = [], []

        class CountingConnection:
            def __init__(self, conn):
                self._conn = conn

            def execute(self, sql, *args):
                statements.append(sql)
                return self._conn.execute(sql, *args)

            def executemany(self, sql, *args):
                statements.append(sql)
                return self._conn.executemany(sql, *args)

            def commit(self):
                commits.append(1)
                return self._conn.commit()

            def __getattr__(self, attribute):
                return getattr(self._conn, attribute)

        raw = backend._conn
        backend._conn = CountingConnection(raw)
        backend.apply_delta_batch("items", batch)
        assert statements == []
        assert commits == []
        assert not raw.in_transaction
        backend.close()

    def test_tid_counter_advances_past_batch_inserts(self, backend):
        batch = DeltaBatch("items")
        batch.record_insert(10, {"NAME": "nail", "QTY": 1, "OK": True})
        backend.apply_delta_batch("items", batch)
        assert backend.insert_row("items", {"NAME": "pin", "QTY": 2, "OK": True}) == 11

    def test_sqlite_batch_is_atomic_on_unknown_tid(self):
        backend = _loaded(SqliteBackend())
        batch = DeltaBatch("items")
        batch.record_update(0, {"QTY": 99})
        batch.record_update(42, {"QTY": 1})  # no such tuple
        before = list(backend.iter_rows("items"))
        with pytest.raises(UnknownTupleError) as excinfo:
            backend.apply_delta_batch("items", batch)
        # the error names the actual missing tid, like the single-op path
        assert excinfo.value.tid == 42
        # the whole transaction rolled back: the valid update did not stick
        assert list(backend.iter_rows("items")) == before
        backend.close()

    def test_sqlite_batch_reports_missing_delete_tid(self):
        backend = _loaded(SqliteBackend())
        batch = DeltaBatch("items")
        batch.record_delete(0)
        batch.record_delete(42)  # no such tuple
        with pytest.raises(UnknownTupleError) as excinfo:
            backend.apply_delta_batch("items", batch)
        assert excinfo.value.tid == 42
        assert backend.row_count("items") == 3  # rolled back
        backend.close()

    def test_sqlite_batch_is_atomic_on_duplicate_insert(self):
        backend = _loaded(SqliteBackend())
        batch = DeltaBatch("items")
        batch.record_delete(1)
        batch.record_insert(0, {"NAME": "dup", "QTY": 1, "OK": True})  # tid 0 live
        before = list(backend.iter_rows("items"))
        with pytest.raises(ConstraintViolationError):
            backend.apply_delta_batch("items", batch)
        assert list(backend.iter_rows("items")) == before
        backend.close()

    def test_sqlite_batch_commits_exactly_once(self):
        backend = _loaded(SqliteBackend())
        commits = []

        class CountingConnection:
            def __init__(self, conn):
                self._conn = conn

            def commit(self):
                commits.append(1)
                return self._conn.commit()

            def __getattr__(self, attribute):
                return getattr(self._conn, attribute)

        backend._conn = CountingConnection(backend._conn)
        backend.apply_delta_batch("items", _mixed_batch())
        assert sum(commits) == 1
        backend.close()


class TestBatchReplayProperty:
    """Random op sequences: one coalesced batch == raw one-by-one replay."""

    row_strategy = st.fixed_dictionaries(
        {
            "NAME": st.sampled_from(["bolt", "nut", "pin", None]),
            "QTY": st.one_of(st.integers(min_value=0, max_value=9), st.none()),
            "OK": st.one_of(st.booleans(), st.none()),
        }
    )

    def _draw_ops(self, data):
        """A random op sequence that is valid against the live relation."""
        live = {0, 1, 2}
        freed = []
        next_tid = 3
        ops = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=10))):
            choices = ["insert"]
            if live:
                choices += ["delete", "update"]
            if freed:
                choices.append("reinsert")  # replace: delete then insert
            op = data.draw(st.sampled_from(choices))
            if op in ("insert", "reinsert"):
                tid = freed.pop() if op == "reinsert" else next_tid
                if op == "insert":
                    next_tid += 1
                ops.append(("insert", tid, data.draw(self.row_strategy)))
                live.add(tid)
            elif op == "delete":
                tid = data.draw(st.sampled_from(sorted(live)))
                live.remove(tid)
                freed.append(tid)
                ops.append(("delete", tid, None))
            else:
                tid = data.draw(st.sampled_from(sorted(live)))
                changes = data.draw(self.row_strategy)
                subset = data.draw(
                    st.sets(st.sampled_from(["NAME", "QTY", "OK"]), min_size=1)
                )
                ops.append(
                    ("update", tid, {attr: changes[attr] for attr in subset})
                )
        return ops, live

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_coalesced_batch_equals_raw_replay(self, data):
        ops, live = self._draw_ops(data)
        batch_backend = _loaded(SqliteBackend())
        replay_backend = _loaded(SqliteBackend())
        relation_replay = Relation.from_rows(SCHEMA, ROWS)
        batch = DeltaBatch("items")
        for op, tid, payload in ops:
            if op == "insert":
                replay_backend.insert_row("items", payload, tid=tid)
                relation_replay.insert_at(tid, payload)
                batch.record_insert(tid, payload)
            elif op == "delete":
                replay_backend.delete_row("items", tid)
                relation_replay.delete(tid)
                batch.record_delete(tid)
            else:
                replay_backend.update_row("items", tid, payload)
                relation_replay.update(tid, payload)
                batch.record_update(tid, payload)
        batch_backend.apply_delta_batch("items", batch)
        expected = list(replay_backend.iter_rows("items"))
        assert list(batch_backend.iter_rows("items")) == expected
        assert list(relation_replay.rows()) == expected

        # rollback path: a poisoned batch (one op hits a missing tid) must
        # leave the backend exactly as it was — none of its valid ops stick
        before = list(batch_backend.iter_rows("items"))
        poison = DeltaBatch("items")
        if live:
            poison.record_update(min(live), {"QTY": 42})
        poison.record_update(999, {"QTY": 1})
        with pytest.raises(UnknownTupleError):
            batch_backend.apply_delta_batch("items", poison)
        assert list(batch_backend.iter_rows("items")) == before
        for backend in (batch_backend, replay_backend):
            backend.close()

    def test_failed_mirror_batch_sets_desync_and_rolls_back(self):
        # the detector-level rollback contract: a batch that fails on the
        # mirror marks the desync and the mirror keeps its pre-batch rows
        # (the transaction rolled the valid half of the batch back)
        from repro.detection.incremental import IncrementalDetector
        from repro.engine.database import Database

        database = Database()
        database.add_relation(Relation.from_rows(SCHEMA, ROWS))
        mirror = _loaded(SqliteBackend())
        detector = IncrementalDetector(database, "items", [], mirror=mirror)
        # desync the mirror behind the detector's back: tid 2 disappears
        mirror._conn.execute('DELETE FROM "items" WHERE _tid = 2')
        mirror._conn.commit()
        before = list(mirror.iter_rows("items"))
        with pytest.raises(UnknownTupleError):
            with detector.batch():
                detector.update(0, {"QTY": 77})
                detector.update(2, {"QTY": 88})  # missing in the mirror
        assert detector.mirror_desynced
        assert list(mirror.iter_rows("items")) == before
        mirror.close()


class TestBackendContextManager:
    def test_sqlite_backend_closes_on_exit(self):
        with SqliteBackend() as backend:
            _loaded(backend)
            assert backend.row_count("items") == 3
        with pytest.raises(sqlite3.ProgrammingError):
            backend._conn.execute("SELECT 1")


class TestExecuteCommitDiscipline:
    def test_select_does_not_commit(self):
        backend = _loaded(SqliteBackend())
        commits = []

        class CountingConnection:
            def __init__(self, conn):
                self._conn = conn

            def commit(self):
                commits.append(1)
                return self._conn.commit()

            def __getattr__(self, attribute):
                return getattr(self._conn, attribute)

        backend._conn = CountingConnection(backend._conn)
        rows = backend.execute("SELECT COUNT(*) AS n FROM items")
        assert rows == [{"n": 3}]
        assert commits == []
        backend.close()

    def test_dml_through_execute_still_commits(self, tmp_path):
        path = tmp_path / "commit.db"
        backend = SqliteBackend(path=str(path))
        backend.add_relation(Relation.from_rows(SCHEMA, ROWS))
        backend.execute("UPDATE items SET QTY = 99 WHERE _tid = 0")
        backend.close()
        reopened = SqliteBackend(path=str(path))
        assert reopened.get_row("items", 0)["QTY"] == 99
        reopened.close()

    def test_row_returning_dml_commits(self, tmp_path):
        # keying the commit decision on cursor.description alone would skip
        # the commit for DML that returns rows
        if sqlite3.sqlite_version_info < (3, 35):
            pytest.skip("RETURNING needs SQLite >= 3.35")
        path = tmp_path / "returning.db"
        backend = SqliteBackend(path=str(path))
        backend.add_relation(Relation.from_rows(SCHEMA, ROWS))
        rows = backend.execute("UPDATE items SET QTY = 50 WHERE _tid = 1 RETURNING QTY")
        assert rows == [{"QTY": 50}]
        backend.close()
        reopened = SqliteBackend(path=str(path))
        assert reopened.get_row("items", 1)["QTY"] == 50
        reopened.close()
