"""The storage-backend interface: the "Database Servers" layer made pluggable.

Semandaq's defining architecture decision is that CFD violation detection is
compiled to SQL and *pushed down* to the underlying DBMS.  A
:class:`StorageBackend` is the narrow contract that pushdown needs from a
database server:

* **catalog operations** — create/drop/list relations, schema lookup;
* **bulk loading** — :meth:`insert_many` for loading rows efficiently
  (CSV import, tableau materialisation);
* **tid-stable row access** — every stored row keeps the stable integer
  tuple id (``tid``) the detector, auditor and cleanser use to refer to it,
  across backends and across round trips;
* **delta operations** — :meth:`insert_row`, :meth:`delete_row` and
  :meth:`update_row` apply a single-tuple change without reloading the
  relation, and :meth:`apply_delta_batch` applies a whole
  :class:`~repro.backends.delta.DeltaBatch` of such changes in one round
  trip (one transaction on SQLite).  The data monitor ships every monitored
  update batch (and every incremental-repair cell change) down this way,
  which is what keeps a backend-resident copy current at a cost
  proportional to the update batch instead of the relation;
* **query execution** — :meth:`execute` runs a detection query (in the
  backend's own :class:`~repro.backends.dialect.SqlDialect`) and returns
  plain row dicts;
* **index management** — :meth:`ensure_index` lets the detector create
  indexes on CFD LHS attributes before running the grouping queries.

The library ships one implementation, the
:class:`~repro.backends.sqlite.SqliteBackend` over the stdlib ``sqlite3``
module; test doubles and the telemetry layer's
:class:`~repro.obs.instrument.InstrumentedBackend` substitute through this
interface.  New backends register themselves with
:func:`repro.backends.registry.register_backend` and become selectable via
``SemandaqConfig(backend=...)``.
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..engine.relation import Relation
from ..engine.types import RelationSchema
from .delta import DeltaBatch
from .dialect import SqlDialect


class StorageBackend(abc.ABC):
    """Abstract interface every storage backend implements."""

    #: short backend name (matches its registry key)
    name: str = "abstract"
    #: SQL dialect the backend's ``execute`` understands
    dialect: SqlDialect

    # -- catalog ---------------------------------------------------------------

    @abc.abstractmethod
    def create_relation(
        self,
        schema: RelationSchema,
        rows: Optional[Iterable[Mapping[str, Any]]] = None,
        replace: bool = False,
    ) -> None:
        """Create a relation from ``schema`` and optionally bulk-load ``rows``."""

    @abc.abstractmethod
    def add_relation(self, relation: Relation, replace: bool = False) -> None:
        """Store an existing in-memory :class:`Relation`, preserving its tids."""

    @abc.abstractmethod
    def drop_relation(self, name: str) -> None:
        """Remove relation ``name``; raises ``UnknownRelationError`` if absent."""

    @abc.abstractmethod
    def has_relation(self, name: str) -> bool:
        """Whether a relation called ``name`` exists."""

    @abc.abstractmethod
    def relation_names(self) -> List[str]:
        """Names of all stored relations, sorted."""

    @abc.abstractmethod
    def schema(self, name: str) -> RelationSchema:
        """The schema of relation ``name``."""

    def schema_summary(self) -> Dict[str, List[str]]:
        """Map each relation name to its attribute names."""
        return {
            name: self.schema(name).attribute_names for name in self.relation_names()
        }

    # -- rows -------------------------------------------------------------------

    @abc.abstractmethod
    def insert_many(
        self, name: str, rows: Iterable[Mapping[str, Any]]
    ) -> List[int]:
        """Bulk-insert ``rows`` into relation ``name``; returns assigned tids."""

    @abc.abstractmethod
    def insert_row(
        self, name: str, row: Mapping[str, Any], tid: Optional[int] = None
    ) -> int:
        """Insert one row; returns its tid.

        When ``tid`` is given the row is stored under exactly that tuple id
        (the caller — typically the data monitor mirroring its working
        store — owns tid assignment); otherwise the backend assigns the next
        free tid.  A single-statement operation: no other row is touched.
        """

    @abc.abstractmethod
    def delete_row(self, name: str, tid: int) -> None:
        """Delete the row stored under ``tid``; raises ``UnknownTupleError``
        if absent.  A single-statement operation."""

    @abc.abstractmethod
    def update_row(
        self, name: str, tid: int, changes: Mapping[str, Any]
    ) -> None:
        """Apply ``changes`` (attribute -> new value) to the row under ``tid``.

        Raises ``UnknownTupleError`` if the tid is not stored.  A
        single-statement operation: only the named attributes of the one row
        change.
        """

    def apply_delta_batch(self, name: str, batch: DeltaBatch) -> None:
        """Apply a whole :class:`~repro.backends.delta.DeltaBatch` to ``name``.

        The batch is already coalesced (at most one net operation per tid),
        so the application order — all deletes, then all inserts, then all
        updates — is always safe, including for replaces (delete + insert
        of the same tid).

        The base implementation loops over the single-statement delta ops;
        backends with a cheaper grouped path (a single transaction, one
        ``executemany`` per operation kind) override it.  Backends that can
        roll back must apply the batch atomically: on failure, none of it.
        A batch that coalesced to *nothing* (e.g. an insert and a delete of
        the same tid) must be a no-op — in particular, no write transaction
        may be opened for it.
        """
        if batch.is_empty():
            return
        for tid in batch.deletes:
            self.delete_row(name, tid)
        for tid, row in batch.inserts:
            self.insert_row(name, row, tid=tid)
        for tid, changes in batch.updates:
            self.update_row(name, tid, changes)

    @abc.abstractmethod
    def get_row(self, name: str, tid: int) -> Dict[str, Any]:
        """The row stored under tuple id ``tid``."""

    @abc.abstractmethod
    def iter_rows(self, name: str) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Iterate ``(tid, row)`` pairs in ascending tid order."""

    @abc.abstractmethod
    def row_count(self, name: str) -> int:
        """Number of rows stored in relation ``name``."""

    @abc.abstractmethod
    def to_relation(self, name: str) -> Relation:
        """Materialise relation ``name`` as an in-memory :class:`Relation`.

        Tuple ids are preserved exactly.  Backends that already hold an
        in-memory :class:`Relation` may return the live object; callers
        must not rely on the result being a private copy.

        The SQL detection paths no longer call this: ``detect`` and
        ``detect_for_tuples`` assemble their reports from backend rows
        alone (schema and row count come from the catalog ops above), so a
        remote backend never ships the relation back.  It remains the bulk-export
        path for the native detector, repair and the explorer.
        """

    # -- queries and indexes -------------------------------------------------------

    @abc.abstractmethod
    def execute(
        self, sql: str, parameters: Optional[Sequence[Any]] = None
    ) -> List[Dict[str, Any]]:
        """Run ``sql`` (in this backend's dialect) and return rows as dicts.

        Statements that produce no rows (DDL, DML) return an empty list.
        ``parameters`` bind to the statement's ``?`` placeholders.
        """

    @abc.abstractmethod
    def ensure_index(self, name: str, attributes: Sequence[str]) -> None:
        """Create an index on ``attributes`` of relation ``name`` if missing.

        The detector calls this for every CFD LHS before running the
        grouping queries, mirroring the paper's reliance on DBMS indexes.
        """

    def explain_query_plan(
        self, sql: str, parameters: Optional[Sequence[Any]] = None
    ) -> Optional[List[Dict[str, Any]]]:
        """The backend's query plan for ``sql``, as plain row dicts.

        Backends without plan introspection return ``None`` (the base
        behaviour); the telemetry layer's ``explain_plans`` mode records
        nothing for them.  SQLite returns its ``EXPLAIN QUERY PLAN`` rows,
        whose ``detail`` text names the indexes driving each step — which
        is what turns "the covering-members query rides the CFD-LHS
        index" from prose into a testable property.
        """
        return None

    # -- concurrent serving --------------------------------------------------------

    @contextmanager
    def read_connection(
        self, snapshot: bool = False, timeout: Optional[float] = None
    ) -> Iterator[Any]:
        """Pin one read context to the calling thread for the block's duration.

        The concurrent serving layer wraps multi-statement read phases
        (a detection run, an audit, an explorer page) in this context so
        every statement issued inside it lands on the *same* underlying
        connection.  With ``snapshot=True`` the backend additionally opens
        a read transaction, so the block observes one consistent snapshot
        of the store even while a writer streams delta batches.

        The yielded value is backend-private (SQLite yields the pinned
        ``sqlite3`` connection); callers keep issuing reads through the
        normal :meth:`execute` / :meth:`get_row` / :meth:`iter_rows`
        surface, which routes to the pinned connection automatically.

        The base implementation is a no-op pin: backends without reader
        pools are plain objects whose reads need no per-thread connection,
        so the context just yields the backend itself.  ``timeout`` bounds the wait for a pooled
        connection on backends that have one.
        """
        del snapshot, timeout  # no pool: nothing to pin or snapshot
        yield self

    def pool_stats(self) -> Dict[str, Any]:
        """Reader-pool acquisition counters (``pool.*``), empty without a pool."""
        return {}

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (connections, file handles)."""

    def __enter__(self) -> "StorageBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"relations={self.relation_names()})"
        )
