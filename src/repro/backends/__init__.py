"""Pluggable storage backends: the "Database Servers" layer of Semandaq.

The paper's system compiles CFD violation detection to SQL and pushes it
down to the underlying DBMS.  This package makes that layer pluggable:

* :class:`~repro.backends.base.StorageBackend` — the narrow interface
  (catalog ops, bulk loading, tid-stable row access, ``execute``,
  ``apply_delta_batch``);
* :class:`~repro.backends.delta.DeltaBatch` — the first-class, coalescing
  changeset the update path ships to a backend in one transaction;
* :class:`~repro.backends.sqlite.SqliteBackend` — the backend detection
  SQL runs on: real-DBMS pushdown on the stdlib ``sqlite3`` module (WAL,
  ``synchronous=NORMAL``, tid primary keys, ``executemany`` bulk loads,
  automatic LHS+RHS detection indexes; SQLite 3.25 or newer);
* :mod:`~repro.backends.dialect` — the SQL dialect description the
  detection-SQL generator consults (string rendering, statement budgets);
* :mod:`~repro.backends.registry` — name-based backend construction
  (``create_backend``), selected through ``SemandaqConfig(backend=...)``.

To add a backend: implement :class:`StorageBackend`, give it a
:class:`~repro.backends.dialect.SqlDialect` describing how non-string
columns are rendered as strings and how many ``?`` parameters one
statement may bind, and register a factory with :func:`register_backend`.
The backend must run the SQLite-flavoured detection SQL (``?``
parameters, row values, derived-table joins).
"""

from .base import StorageBackend
from .delta import DeltaBatch
from .dialect import SQLITE_DIALECT, SqlDialect, SqliteDialect
from .registry import (
    available_backends,
    create_backend,
    register_backend,
    unregister_backend,
)
from .sqlite import SqliteBackend

__all__ = [
    "StorageBackend",
    "DeltaBatch",
    "SqliteBackend",
    "SqlDialect",
    "SqliteDialect",
    "SQLITE_DIALECT",
    "available_backends",
    "create_backend",
    "register_backend",
    "unregister_backend",
]
