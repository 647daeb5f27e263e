"""The storage backend: the "Database Servers" layer of Semandaq.

The paper's system compiles CFD violation detection to SQL and pushes it
down to the underlying DBMS.  This package holds that layer:

* :class:`~repro.backends.base.StorageBackend` — the narrow interface
  (catalog ops, bulk loading, tid-stable row access, ``execute``,
  ``apply_delta_batch``) that test doubles and the telemetry proxy
  substitute through;
* :class:`~repro.backends.delta.DeltaBatch` — the first-class, coalescing
  changeset the update path ships to a backend in one transaction;
* :class:`~repro.backends.sqlite.SqliteBackend` — the backend detection
  SQL runs on: real-DBMS pushdown on the stdlib ``sqlite3`` module (WAL,
  ``synchronous=NORMAL``, tid primary keys, ``executemany`` bulk loads,
  automatic LHS+RHS detection indexes; SQLite 3.25 or newer).  It owns
  how a value is stored and read back, and detection SQL compares the
  stored values directly.
"""

from .base import StorageBackend
from .delta import DeltaBatch
from .sqlite import SqliteBackend

__all__ = [
    "StorageBackend",
    "DeltaBatch",
    "SqliteBackend",
]
