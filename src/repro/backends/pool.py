"""A bounded pool of read-only SQLite connections.

The concurrent serving layer hands every reader thread its own SQLite
connection: WAL mode already lets any number of readers run against the
database file while one writer streams update batches, but a single
``sqlite3.Connection`` serialises everything through one cursor (and the
stdlib forbids sharing a connection across threads by default).  The
:class:`SqliteReaderPool` keeps that concurrency honest and bounded:

* connections are opened **read-only** (``mode=ro`` URI + ``PRAGMA
  query_only=ON``), so a detection query can never mutate the store even
  if a statement slips through the backend's read/write routing;
* the pool is **bounded** — ``acquire`` blocks when every connection is
  checked out (a timeout raises :class:`PoolTimeoutError` instead of
  silently opening more file handles), so a thundering herd degrades to
  queueing, not to fd exhaustion;
* connections are opened **lazily**: a single-threaded workload pays for
  one reader connection, not ``size``;
* ``close`` drains the pool and closes every connection it ever opened —
  the file-backed test suite pins "no leaked fds" on this.

Acquisition statistics (``acquired``/``wait_ms``/``timeouts``/``size``)
are tracked under the pool lock; the facade folds them into the telemetry
snapshot as ``pool.*`` counters.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ..errors import BackendError


class PoolTimeoutError(BackendError):
    """Waiting for a pooled reader connection exceeded the timeout."""

    def __init__(self, timeout: float, size: int):
        super().__init__(
            f"no reader connection became available within {timeout:.3f}s "
            f"(pool size {size}; every connection is checked out)"
        )
        self.timeout = timeout
        self.size = size


class SqliteReaderPool:
    """A bounded, lazily populated pool of read-only SQLite connections.

    ``connect`` is the factory that opens one configured read-only
    connection (the backend supplies it so the readers carry the same
    row factory, pragmas and SQL functions as the writer).  The pool
    never opens more than ``size`` connections; once the cap is reached,
    :meth:`acquire` blocks on a condition variable until a connection is
    released (or the timeout expires).
    """

    def __init__(self, size: int, connect: Callable[[], sqlite3.Connection]):
        if size < 1:
            raise BackendError(f"reader pool size must be at least 1, got {size}")
        self.size = size
        self._connect = connect
        self._lock = threading.Condition()
        #: connections currently checked in (LIFO: the hottest statement
        #: cache is reused first)
        self._idle: List[sqlite3.Connection] = []
        #: number of connections opened so far (idle + checked out)
        self._opened = 0
        self._closed = False
        #: acquisition statistics (read via :meth:`stats`)
        self._acquired = 0
        self._wait_ms = 0.0
        self._timeouts = 0

    def acquire(self, timeout: Optional[float] = None) -> sqlite3.Connection:
        """Check one reader connection out, blocking while the pool is empty.

        Raises :class:`PoolTimeoutError` when ``timeout`` (seconds) passes
        without a connection becoming available, and :class:`BackendError`
        once the pool is closed.
        """
        started = time.perf_counter()
        deadline = None if timeout is None else started + timeout
        with self._lock:
            while True:
                if self._closed:
                    raise BackendError("reader pool is closed")
                if self._idle:
                    conn = self._idle.pop()
                    break
                if self._opened < self.size:
                    # open outside the idle list: this connection is
                    # checked out the moment it exists
                    self._opened += 1
                    try:
                        conn = self._connect()
                    except BaseException:
                        self._opened -= 1
                        self._lock.notify()
                        raise
                    break
                remaining = None if deadline is None else deadline - time.perf_counter()
                if remaining is not None and remaining <= 0:
                    self._timeouts += 1
                    raise PoolTimeoutError(timeout or 0.0, self.size)
                self._lock.wait(remaining)
            self._acquired += 1
            self._wait_ms += (time.perf_counter() - started) * 1000.0
            return conn

    def release(self, conn: sqlite3.Connection) -> None:
        """Check a connection back in (closes it if the pool was closed)."""
        with self._lock:
            if self._closed:
                self._opened -= 1
                conn.close()
                return
            self._idle.append(conn)
            self._lock.notify()

    def close(self) -> None:
        """Drain the pool: close every idle connection and refuse new work.

        Connections still checked out are closed by their own
        :meth:`release`; a subsequent :meth:`acquire` raises.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            while self._idle:
                self._idle.pop().close()
                self._opened -= 1
            self._lock.notify_all()

    def stats(self) -> Dict[str, Any]:
        """Acquisition statistics, for the ``pool.*`` telemetry counters."""
        with self._lock:
            return {
                "pool.size": self.size,
                "pool.open": self._opened,
                "pool.acquired": self._acquired,
                "pool.wait_ms": round(self._wait_ms, 3),
                "pool.timeouts": self._timeouts,
            }
