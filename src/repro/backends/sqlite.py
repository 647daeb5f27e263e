"""The SQLite backend: real-DBMS pushdown on the stdlib ``sqlite3`` module.

This is the backend the paper's detection SQL runs on.  It supports
SQLite 3.25 or newer — a floor set by policy; the newest feature the
detection SQL needs is row values (3.15) — and an older linked library
raises :class:`~repro.errors.UnsupportedSqliteError` on construction.
Each relation becomes a SQLite table whose primary key is the stable
tuple id (``_tid INTEGER PRIMARY KEY`` — a rowid alias, so tid lookups
are B-tree point reads), loaded with ``executemany`` batches.  The
connection is tuned the way embedded-SQLite services usually are:

* ``journal_mode=WAL`` — write-ahead logging, so future concurrent readers
  never block a loader (file-backed databases only; ``:memory:`` databases
  fall back to the ``memory`` journal);
* ``synchronous=NORMAL`` — fsync only at WAL checkpoints, the standard
  durability/throughput trade-off for derived data;
* ``temp_store=MEMORY`` — grouping/temp structures stay off disk.

The detector asks through :meth:`ensure_index` for one index per CFD and
RHS attribute, over the LHS followed by that RHS attribute, so the
``Q_V`` grouping queries and the restricted group checks read covering
B-trees exactly as the paper's "maximally leverage DBMS indices" line
prescribes.  The backend remembers which indexes it has built, so a warm
detection never takes the writer lock.

**Concurrent serving.**  A file-backed backend is split into one *writer*
connection (all DDL/DML, guarded by a re-entrant lock so a multi-statement
``DeltaBatch`` transaction is never interleaved) plus a bounded
:class:`~repro.backends.pool.SqliteReaderPool` of read-only connections
handed out per thread through :meth:`read_connection`.  Detection SELECTs
route to the calling thread's pooled reader automatically, so worker
threads run ``detect``/``detect_for_tuples`` in parallel with the writer
streaming update batches — WAL gives every reader a consistent snapshot
and the writer never blocks on them.  ``:memory:`` databases cannot share
data across connections, so they keep the single-connection mode (reads
serialise through the writer lock); ``pool_size=0`` forces that mode on
files too (the single-connection baseline the THROUGHPUT benchmark
measures against).
"""

from __future__ import annotations

import hashlib
import re
import sqlite3
import threading
from contextlib import contextmanager
from typing import (
    Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple
)

from ..errors import (
    BackendError,
    ConstraintViolationError,
    DuplicateRelationError,
    SqlExecutionError,
    UnknownRelationError,
    UnknownTupleError,
    UnsupportedSqliteError,
)
from ..engine.relation import Relation
from ..engine.types import AttributeDef, DataType, RelationSchema
from .base import StorageBackend
from .delta import DeltaBatch
from .pool import SqliteReaderPool

#: SQLite column affinity per engine data type
_SQL_TYPES = {
    DataType.STRING: "TEXT",
    DataType.INTEGER: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.BOOLEAN: "INTEGER",
}

#: inverse mapping used when reopening an existing database file.  BOOLEAN
#: is stored as INTEGER, so it reopens as INTEGER — values survive, the
#: boolean typing does not.
_AFFINITY_TYPES = {
    "TEXT": DataType.STRING,
    "INTEGER": DataType.INTEGER,
    "REAL": DataType.FLOAT,
}

#: oldest supported SQLite library: a floor set by policy, above the
#: newest feature the detection SQL needs (row-value semi-joins, 3.15)
MIN_SQLITE_VERSION = (3, 25)

#: name of the hidden tuple-id column
TID_COLUMN = "_tid"

#: the portable floor of ``SQLITE_MAX_VARIABLE_NUMBER``: builds compiled
#: before SQLite 3.32 default to 999 bound parameters per statement
SQLITE_PARAMETER_FLOOR = 999

#: default size of the connection's prepared-statement cache.  The default
#: of the stdlib module (128) is too small once the detection layer issues
#: per-pattern, per-chunk Q_C/Q_V statements for several CFDs per round;
#: 512 keeps every recurring shape compiled.
STATEMENT_CACHE_SIZE = 512

#: name prefix of internal relations: the pattern tableaux the detectors
#: materialised in stores written before detection stopped writing any.
#: Never part of the user's catalog; dropped when such a store reopens
INTERNAL_RELATION_PREFIX = "__semandaq_"

#: default number of pooled read-only connections for file-backed stores
DEFAULT_POOL_SIZE = 4

#: default ``PRAGMA busy_timeout`` (milliseconds) on every connection —
#: a reader that races a WAL checkpoint waits instead of erroring
DEFAULT_BUSY_TIMEOUT_MS = 5000

#: default seconds :meth:`SqliteBackend.read_connection` waits for a
#: pooled connection before raising ``PoolTimeoutError``
DEFAULT_POOL_TIMEOUT = 30.0

#: first keyword of statements that route to a pooled reader connection
_READ_STATEMENT = re.compile(r"^\s*(SELECT|WITH|VALUES|EXPLAIN)\b", re.IGNORECASE)


def _ident(name: str) -> str:
    """Quote ``name`` as a SQLite identifier, rejecting embedded quotes."""
    if '"' in name:
        raise BackendError(f"invalid identifier for the sqlite backend: {name!r}")
    return f'"{name}"'


class SqliteBackend(StorageBackend):
    """Storage backend over a (file- or memory-backed) SQLite database."""

    name = "sqlite"

    def __init__(
        self,
        path: str = ":memory:",
        synchronous: str = "NORMAL",
        max_parameters: Optional[int] = None,
        cached_statements: int = STATEMENT_CACHE_SIZE,
        pool_size: Optional[int] = None,
        busy_timeout_ms: int = DEFAULT_BUSY_TIMEOUT_MS,
        pool_timeout: float = DEFAULT_POOL_TIMEOUT,
    ):
        if sqlite3.sqlite_version_info < MIN_SQLITE_VERSION:
            raise UnsupportedSqliteError(
                f"SQLite {sqlite3.sqlite_version} is too old: the sqlite backend "
                f"needs {'.'.join(map(str, MIN_SQLITE_VERSION))} or newer"
            )
        if pool_size is not None and pool_size < 0:
            raise BackendError(f"pool_size must be >= 0 or None, not {pool_size}")
        self.path = str(path)
        self._synchronous = synchronous
        self._cached_statements = cached_statements
        self._busy_timeout_ms = busy_timeout_ms
        self._pool_timeout = pool_timeout
        #: serialises every writer-connection use; re-entrant so a batch
        #: transaction can call the single-statement helpers it is built of
        self._write_lock = threading.RLock()
        #: per-thread pinned reader (see :meth:`read_connection`)
        self._local = threading.local()
        self._closed = False
        # The budget-chunked delta/members statements recur with a bounded
        # set of shapes (one per parameter-budget chunk size); a statement
        # cache larger than sqlite3's default 128 keeps them compiled
        # across rounds — the connection-level half of the prepared-plan
        # caching whose SQL-text half lives in DetectionSqlGenerator.
        # ``check_same_thread=False``: the writer connection is shared by
        # every thread that applies updates, serialised by ``_write_lock``.
        # A path SQLite cannot open (a missing directory, a file that is
        # not a database) raises the typed BackendError.
        try:
            self._conn = sqlite3.connect(
                self.path, cached_statements=cached_statements, check_same_thread=False
            )
            self._conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.Error as exc:
            raise BackendError(
                f"cannot open the sqlite store at {self.path!r}: {exc}"
            ) from exc
        self._conn.row_factory = sqlite3.Row
        self._conn.execute(f"PRAGMA synchronous={synchronous}")
        self._conn.execute("PRAGMA temp_store=MEMORY")
        self._conn.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
        # A private ``:memory:`` database is invisible to other
        # connections, so only file-backed stores get a reader pool;
        # ``pool_size=0`` keeps the single-connection mode on files too.
        if pool_size is None:
            pool_size = DEFAULT_POOL_SIZE
        if self.path == ":memory:" or self.path.startswith("file:"):
            pool_size = 0
        self._pool: Optional[SqliteReaderPool] = (
            SqliteReaderPool(pool_size, self._connect_reader)
            if pool_size > 0
            else None
        )
        # The detection-SQL generator chunks its statements by this
        # parameter budget, so read the connection's real limit where the
        # stdlib exposes it (Python 3.11+); older builds keep the portable
        # 999 floor.  ``max_parameters`` overrides the probe — e.g. to force
        # fine chunking in tests.
        if max_parameters is None:
            max_parameters = self._probe_parameter_limit()
        self.max_parameters = max_parameters
        self._schemas: Dict[str, RelationSchema] = {}
        self._next_tid: Dict[str, int] = {}
        #: ``(relation, attributes)`` pairs :meth:`ensure_index` has built;
        #: a relation's pairs are forgotten when it is dropped or replaced
        self._indexed: Set[Tuple[str, Tuple[str, ...]]] = set()
        self._load_catalog()

    def _probe_parameter_limit(self) -> int:
        """The connection's ``SQLITE_LIMIT_VARIABLE_NUMBER``.

        Falls back to the portable 999 floor when the stdlib predates the
        ``getlimit`` API (Python < 3.11), where the actual compile-time
        limit cannot be read.
        """
        if hasattr(self._conn, "getlimit"):  # Python 3.11+
            try:
                limit = self._conn.getlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER)
                if limit > 0:
                    return limit
            except sqlite3.Error:  # pragma: no cover - probe never fails in CI
                pass
        return SQLITE_PARAMETER_FLOOR

    # -- reader pool -------------------------------------------------------------

    def _connect_reader(self) -> sqlite3.Connection:
        """Open one read-only connection, configured like the writer.

        ``mode=ro`` refuses writes at open time and ``query_only=ON`` at
        statement time; ``check_same_thread=False`` because the pool hands
        a connection to whichever thread acquires it (one thread at a time
        — the pool guarantees exclusive checkout).
        """
        conn = sqlite3.connect(
            f"file:{self.path}?mode=ro",
            uri=True,
            cached_statements=self._cached_statements,
            check_same_thread=False,
        )
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA query_only=ON")
        conn.execute(f"PRAGMA busy_timeout={int(self._busy_timeout_ms)}")
        return conn

    @contextmanager
    def read_connection(
        self, snapshot: bool = False, timeout: Optional[float] = None
    ) -> Iterator[sqlite3.Connection]:
        """Pin a reader connection to the calling thread for the block.

        Every read the thread performs inside the block (``execute`` of a
        SELECT, ``get_row``, ``row_count``, ...) reuses the pinned
        connection instead of checking one out per statement; nested
        blocks are re-entrant.  With ``snapshot=True`` the connection
        holds one WAL read transaction across the whole block, so every
        statement inside sees the same committed state — a concurrent
        writer cannot tear a multi-statement report.

        Without a pool (``:memory:`` or ``pool_size=0``) the block holds
        the write lock and yields the single connection: the original
        serialised semantics, which is what makes this the explicit seam
        the concurrent paths are written against.
        """
        self._check_open()
        if self._pool is None:
            with self._write_lock:
                yield self._conn
            return
        state = self._local
        if getattr(state, "depth", 0) > 0:
            state.depth += 1
            try:
                yield state.conn
            finally:
                state.depth -= 1
            return
        conn = self._pool.acquire(
            timeout=self._pool_timeout if timeout is None else timeout
        )
        state.conn = conn
        state.depth = 1
        began = False
        try:
            if snapshot:
                # deferred: the snapshot is taken at the block's first read
                conn.execute("BEGIN")
                began = True
            yield conn
        finally:
            state.depth = 0
            state.conn = None
            if began:
                try:
                    conn.execute("COMMIT")
                except sqlite3.Error:  # pragma: no cover - read txns commit
                    pass
            self._pool.release(conn)

    def _read_conn(self) -> Optional[sqlite3.Connection]:
        """The thread's pinned reader connection, if inside ``read_connection``."""
        return getattr(self._local, "conn", None) if self._pool is not None else None

    @contextmanager
    def _reading(self) -> Iterator[sqlite3.Connection]:
        """One read statement's connection: pinned reader, pool, or writer."""
        pinned = self._read_conn()
        if pinned is not None:
            yield pinned
            return
        with self.read_connection() as conn:
            yield conn

    def pool_stats(self) -> Dict[str, Any]:
        """The reader pool's ``pool.*`` statistics (empty without a pool)."""
        return self._pool.stats() if self._pool is not None else {}

    def _load_catalog(self) -> None:
        """Rebuild the catalog from an existing database file.

        Every table with a ``_tid`` column reopens as a relation (schema
        reconstructed from column affinities, tid counter from the highest
        stored tid), so a file-backed store survives across sessions.
        Internal ``__semandaq_*`` tableaux left by older versions of the
        detectors are dropped instead of being adopted as user relations
        — they are derived data nothing reads any more.
        """
        tables = self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        ).fetchall()
        for table in tables:
            name = table["name"]
            if name.startswith("sqlite_"):
                continue
            if name.startswith(INTERNAL_RELATION_PREFIX):
                self._conn.execute(f"DROP TABLE IF EXISTS {_ident(name)}")
                self._conn.commit()
                continue
            info = self._conn.execute(f"PRAGMA table_info({_ident(name)})").fetchall()
            if TID_COLUMN not in {column["name"] for column in info}:
                continue
            attributes = [
                AttributeDef(
                    column["name"],
                    _AFFINITY_TYPES.get(str(column["type"]).upper(), DataType.STRING),
                    nullable=not column["notnull"],
                )
                for column in info
                if column["name"] != TID_COLUMN
            ]
            self._schemas[name] = RelationSchema(name=name, attributes=attributes)
            max_tid = self._conn.execute(
                f"SELECT MAX({_ident(TID_COLUMN)}) AS m FROM {_ident(name)}"
            ).fetchone()["m"]
            self._next_tid[name] = 0 if max_tid is None else max_tid + 1

    # -- catalog ---------------------------------------------------------------

    def create_relation(
        self,
        schema: RelationSchema,
        rows: Optional[Iterable[Mapping[str, Any]]] = None,
        replace: bool = False,
    ) -> None:
        self._check_open()
        with self._write_lock:
            if schema.name in self._schemas:
                if not replace:
                    raise DuplicateRelationError(
                        f"relation {schema.name!r} already exists"
                    )
                self.drop_relation(schema.name)
            columns = [f"{_ident(TID_COLUMN)} INTEGER PRIMARY KEY"]
            for attr in schema.attributes:
                null = "" if attr.nullable else " NOT NULL"
                columns.append(f"{_ident(attr.name)} {_SQL_TYPES[attr.dtype]}{null}")
            self._conn.execute(
                f"CREATE TABLE {_ident(schema.name)} ({', '.join(columns)})"
            )
            if schema.key:
                self._conn.execute(
                    f"CREATE UNIQUE INDEX {_ident('uq_' + schema.name + '_key')} "
                    f"ON {_ident(schema.name)} "
                    f"({', '.join(_ident(a) for a in schema.key)})"
                )
            self._schemas[schema.name] = schema
            self._next_tid[schema.name] = 0
            if rows is not None:
                self.insert_many(schema.name, rows)
            self._conn.commit()

    def add_relation(self, relation: Relation, replace: bool = False) -> None:
        with self._write_lock:
            self.create_relation(relation.schema, rows=None, replace=replace)
            name = relation.name
            self._bulk_insert(name, list(relation.rows()))
            tids = relation.tids()
            self._next_tid[name] = (tids[-1] + 1) if tids else 0
            self._conn.commit()

    def drop_relation(self, name: str) -> None:
        with self._write_lock:
            self._require(name)
            self._conn.execute(f"DROP TABLE IF EXISTS {_ident(name)}")
            self._conn.commit()
            del self._schemas[name]
            del self._next_tid[name]
            self._indexed = {key for key in self._indexed if key[0] != name}

    def has_relation(self, name: str) -> bool:
        return name in self._schemas

    def relation_names(self) -> List[str]:
        return sorted(self._schemas)

    def schema(self, name: str) -> RelationSchema:
        return self._require(name)

    # -- rows -------------------------------------------------------------------

    def insert_many(self, name: str, rows: Iterable[Mapping[str, Any]]) -> List[int]:
        with self._write_lock:
            schema = self._require(name)
            start = self._next_tid[name]
            pairs = [
                (start + offset, schema.coerce_row(dict(row)))
                for offset, row in enumerate(rows)
            ]
            try:
                self._bulk_insert(name, pairs)
            except sqlite3.IntegrityError as exc:
                # Roll the partial batch back so the backend stays usable (and
                # _next_tid stays consistent with what is actually stored).
                self._conn.rollback()
                raise ConstraintViolationError(str(exc)) from exc
            self._next_tid[name] = start + len(pairs)
            self._conn.commit()
            return [tid for tid, _row in pairs]

    def _bulk_insert(
        self, name: str, pairs: Sequence[Tuple[int, Mapping[str, Any]]]
    ) -> None:
        if not pairs:
            return
        schema = self._schemas[name]
        attrs = schema.attribute_names
        columns = ", ".join(_ident(c) for c in [TID_COLUMN] + attrs)
        placeholders = ", ".join("?" for _ in range(len(attrs) + 1))
        self._conn.executemany(
            f"INSERT INTO {_ident(name)} ({columns}) VALUES ({placeholders})",
            (
                tuple([tid] + [_encode(row.get(a)) for a in attrs])
                for tid, row in pairs
            ),
        )

    def insert_row(
        self, name: str, row: Mapping[str, Any], tid: Optional[int] = None
    ) -> int:
        with self._write_lock:
            schema = self._require(name)
            coerced = schema.coerce_row(dict(row))
            if tid is None:
                tid = self._next_tid[name]
            try:
                self._bulk_insert(name, [(tid, coerced)])
            except sqlite3.IntegrityError as exc:
                self._conn.rollback()
                raise ConstraintViolationError(str(exc)) from exc
            except sqlite3.Error as exc:
                raise SqlExecutionError(str(exc)) from exc
            self._next_tid[name] = max(self._next_tid[name], tid + 1)
            self._conn.commit()
            return tid

    def delete_row(self, name: str, tid: int) -> None:
        with self._write_lock:
            self._require(name)
            try:
                cursor = self._conn.execute(
                    f"DELETE FROM {_ident(name)} WHERE {_ident(TID_COLUMN)} = ?",
                    (tid,),
                )
            except sqlite3.Error as exc:
                raise SqlExecutionError(str(exc)) from exc
            if cursor.rowcount == 0:
                self._conn.rollback()
                raise UnknownTupleError(tid)
            self._conn.commit()

    def update_row(self, name: str, tid: int, changes: Mapping[str, Any]) -> None:
        with self._write_lock:
            schema = self._require(name)
            if not changes:
                self.get_row(name, tid)  # still raises UnknownTupleError if absent
                return
            assignments: List[str] = []
            values: List[Any] = []
            for attr_name, value in changes.items():
                attr = schema.attribute(attr_name)  # validates existence
                assignments.append(f"{_ident(attr_name)} = ?")
                values.append(_encode(attr.coerce(value)))
            try:
                cursor = self._conn.execute(
                    f"UPDATE {_ident(name)} SET {', '.join(assignments)} "
                    f"WHERE {_ident(TID_COLUMN)} = ?",
                    tuple(values) + (tid,),
                )
            except sqlite3.IntegrityError as exc:
                self._conn.rollback()
                raise ConstraintViolationError(str(exc)) from exc
            except sqlite3.Error as exc:
                raise SqlExecutionError(str(exc)) from exc
            if cursor.rowcount == 0:
                self._conn.rollback()
                raise UnknownTupleError(tid)
            self._conn.commit()

    def apply_delta_batch(self, name: str, batch: DeltaBatch) -> None:
        """Apply a whole batch in one transaction: executemany per op kind.

        Where the single-statement delta ops pay one commit each, the batch
        pays exactly one — the grouped statements run inside one implicit
        transaction and either all commit or (on any failure) all roll
        back, so the backend copy never holds half an update batch.
        """
        with self._write_lock:
            schema = self._require(name)
            if batch.is_empty():
                # An empty (fully coalesced-away) batch must not touch the
                # connection at all: no statements, no transaction, no commit.
                return
            deletes = batch.deletes
            inserts = batch.inserts
            try:
                if deletes:
                    cursor = self._conn.executemany(
                        f"DELETE FROM {_ident(name)} WHERE {_ident(TID_COLUMN)} = ?",
                        [(tid,) for tid in deletes],
                    )
                    if cursor.rowcount != len(deletes):
                        # roll back first so the existence probe sees the
                        # pre-batch state (the present tids are deleted by now)
                        self._conn.rollback()
                        raise UnknownTupleError(self._first_missing_tid(name, deletes))
                if inserts:
                    self._bulk_insert(
                        name,
                        [(tid, schema.coerce_row(dict(row))) for tid, row in inserts],
                    )
                for attrs, group in batch.grouped_updates():
                    for attr_name in attrs:
                        schema.attribute(attr_name)  # validates existence
                    assignments = ", ".join(f"{_ident(a)} = ?" for a in attrs)
                    cursor = self._conn.executemany(
                        f"UPDATE {_ident(name)} SET {assignments} "
                        f"WHERE {_ident(TID_COLUMN)} = ?",
                        [
                            tuple(
                                _encode(schema.attribute(a).coerce(changes[a]))
                                for a in attrs
                            )
                            + (tid,)
                            for tid, changes in group
                        ],
                    )
                    if cursor.rowcount != len(group):
                        self._conn.rollback()
                        raise UnknownTupleError(
                            self._first_missing_tid(name, [tid for tid, _ in group])
                        )
            except sqlite3.IntegrityError as exc:
                self._conn.rollback()
                raise ConstraintViolationError(str(exc)) from exc
            except sqlite3.Error as exc:
                self._conn.rollback()
                raise SqlExecutionError(str(exc)) from exc
            except Exception:
                self._conn.rollback()
                raise
            self._conn.commit()
            if inserts:
                self._next_tid[name] = max(
                    self._next_tid[name], max(tid for tid, _row in inserts) + 1
                )

    def get_row(self, name: str, tid: int) -> Dict[str, Any]:
        schema = self._require(name)
        with self._reading() as conn:
            cursor = conn.execute(
                f"SELECT * FROM {_ident(name)} WHERE {_ident(TID_COLUMN)} = ?",
                (tid,),
            )
            row = cursor.fetchone()
        if row is None:
            raise UnknownTupleError(tid)
        return _decode_row(schema, row)

    def iter_rows(self, name: str) -> Iterator[Tuple[int, Dict[str, Any]]]:
        schema = self._require(name)
        # materialised inside the block: a lazily consumed cursor would
        # pin the pooled connection for the generator's whole lifetime
        with self._reading() as conn:
            rows = conn.execute(
                f"SELECT * FROM {_ident(name)} ORDER BY {_ident(TID_COLUMN)}"
            ).fetchall()
        for row in rows:
            yield row[TID_COLUMN], _decode_row(schema, row)

    def row_count(self, name: str) -> int:
        self._require(name)
        with self._reading() as conn:
            cursor = conn.execute(f"SELECT COUNT(*) AS n FROM {_ident(name)}")
            return int(cursor.fetchone()["n"])

    def to_relation(self, name: str) -> Relation:
        return Relation.from_tid_rows(self._require(name), self.iter_rows(name))

    # -- queries and indexes -------------------------------------------------------

    def execute(
        self, sql: str, parameters: Optional[Sequence[Any]] = None
    ) -> List[Dict[str, Any]]:
        self._check_open()
        # Read statements (the detection SELECTs) route to a pooled
        # read-only connection so worker threads never serialise on the
        # writer; everything else (DDL, DML, pragmas) takes the writer
        # under the write lock.
        if self._pool is not None and _READ_STATEMENT.match(sql):
            with self._reading() as conn:
                try:
                    cursor = conn.execute(sql, tuple(parameters or ()))
                except sqlite3.Error as exc:
                    raise SqlExecutionError(str(exc)) from exc
                return (
                    []
                    if cursor.description is None
                    else [dict(row) for row in cursor.fetchall()]
                )
        with self._write_lock:
            try:
                cursor = self._conn.execute(sql, tuple(parameters or ()))
            except sqlite3.IntegrityError as exc:
                self._conn.rollback()
                raise ConstraintViolationError(str(exc)) from exc
            except sqlite3.Error as exc:
                # Surface the engine's error type so callers can switch backends
                # without changing their exception handling.
                raise SqlExecutionError(str(exc)) from exc
            rows = (
                []
                if cursor.description is None
                else [dict(row) for row in cursor.fetchall()]
            )
            # Commit only when the statement actually opened a write transaction.
            # Read-only statements (the detection SELECTs) never do, so they no
            # longer pay a WAL write per query — and DML that *returns* rows
            # (e.g. RETURNING clauses) is committed, which keying the decision
            # on ``cursor.description`` alone would miss.
            if self._conn.in_transaction:
                self._conn.commit()
            return rows

    def explain_query_plan(
        self, sql: str, parameters: Optional[Sequence[Any]] = None
    ) -> Optional[List[Dict[str, Any]]]:
        """SQLite's ``EXPLAIN QUERY PLAN`` rows for ``sql``.

        The statement is prepared with the same bound parameters the real
        execution would use, so the reported plan is the one the engine
        actually picks.  Returns ``None`` when the engine cannot explain
        the statement (e.g. DDL), keeping the base-contract semantics of
        "no plan available".
        """
        with self._reading() as conn:
            try:
                cursor = conn.execute(
                    "EXPLAIN QUERY PLAN " + sql, tuple(parameters or ())
                )
            except sqlite3.Error:
                return None
            return [dict(row) for row in cursor.fetchall()]

    def ensure_index(self, name: str, attributes: Sequence[str]) -> None:
        """Create the index once; later calls return without the writer lock.

        Detection calls this before every query phase, so a request that
        waited for the lock would wait for whatever batch the writer is
        shipping.
        """
        self._require(name)  # a closed backend or unknown relation raises
        key = (name, tuple(attributes))
        if key in self._indexed:
            return
        with self._write_lock:
            schema = self._require(name)
            for attr in attributes:
                schema.attribute(attr)  # validates existence
            # A digest keeps distinct attribute lists from colliding on the same
            # index name (joining with "_" alone would map ("a_b",) and
            # ("a", "b") to one name and silently skip the second index).
            digest = hashlib.md5("\x1f".join(attributes).encode()).hexdigest()[:8]
            index_name = "idx_" + name + "_" + "_".join(attributes) + "_" + digest
            self._conn.execute(
                f"CREATE INDEX IF NOT EXISTS {_ident(index_name)} "
                f"ON {_ident(name)} ({', '.join(_ident(a) for a in attributes)})"
            )
            self._conn.commit()
            self._indexed.add(key)

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Close the writer and drain the reader pool.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.close()
        self._conn.close()

    # -- internal -------------------------------------------------------------------

    def _first_missing_tid(self, name: str, tids: Sequence[int]) -> int:
        """The first tid of ``tids`` not stored in ``name`` (for error reports).

        Only called on the batch error path, after the failed transaction
        rolled back, so the probes see the pre-batch state.
        """
        for tid in tids:
            row = self._conn.execute(
                f"SELECT 1 FROM {_ident(name)} WHERE {_ident(TID_COLUMN)} = ?",
                (tid,),
            ).fetchone()
            if row is None:
                return tid
        return tids[0]  # pragma: no cover - rowcount mismatch implies a miss

    def _check_open(self) -> None:
        """Refuse use after :meth:`close` with a typed error.

        Called where calls enter (:meth:`_require`, :meth:`execute`,
        :meth:`read_connection`, :meth:`create_relation`), so no raw
        ``sqlite3.ProgrammingError`` from the closed connection escapes.
        """
        if self._closed:
            raise BackendError(f"the sqlite backend at {self.path!r} is closed")

    def _require(self, name: str) -> RelationSchema:
        self._check_open()
        if name not in self._schemas:
            raise UnknownRelationError(name)
        return self._schemas[name]


def _encode(value: Any) -> Any:
    """Encode an engine value for SQLite storage (booleans become 0/1)."""
    if isinstance(value, bool):
        return int(value)
    return value


def decode_backend_value(dtype: DataType, value: Any) -> Any:
    """Decode one stored value of type ``dtype`` into its engine value.

    The inverse of :func:`_encode`: SQLite hands back 0/1 for booleans,
    which the working store holds as ``bool`` — hash-equal, but reports
    must show the latter.  Every other type round-trips unchanged.  The
    detector's report assembly and the backend tuple source decode
    through here too.
    """
    if value is not None and dtype is DataType.BOOLEAN:
        return bool(value)
    return value


def _decode_row(schema: RelationSchema, row: sqlite3.Row) -> Dict[str, Any]:
    """Decode a SQLite row back into engine values."""
    return {
        attr.name: decode_backend_value(attr.dtype, row[attr.name])
        for attr in schema.attributes
    }
