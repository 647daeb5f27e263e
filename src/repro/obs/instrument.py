"""The instrumented storage-backend proxy.

:class:`InstrumentedBackend` wraps any
:class:`~repro.backends.base.StorageBackend` and records, per operation:

* ``execute`` — duration (``statement_ms.<kind>`` histogram), rows
  returned, parameter count, all bucketed by the statement kind the
  detectors announce through
  :meth:`~repro.obs.telemetry.Telemetry.tag_statements`; plus optional
  DEBUG statement logging (``log_sql``) and ``EXPLAIN QUERY PLAN``
  capture (``explain_plans``);
* the write/catalog operations (``insert_many``, ``apply_delta_batch``,
  the single-row delta ops, ``add_relation``, ``ensure_index``) —
  duration histograms under ``backend_ms.<op>`` and rows-affected
  counters under ``backend_rows.<op>``.

The proxy is registered as a virtual subclass of :class:`StorageBackend`
(it delegates rather than inherits — inheriting would re-trigger the
abstract-method contract for methods it forwards via ``__getattr__``), so
``isinstance`` checks across the stack keep working.  Every attribute it
does not instrument — ``max_parameters``, ``name``, ``schema``,
``row_count``, SQLite's ``path`` — passes straight through to the wrapped
backend.
"""

from __future__ import annotations

import logging
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from ..backends.base import StorageBackend
from .telemetry import Telemetry

logger = logging.getLogger(__name__)


class InstrumentedBackend:
    """A :class:`StorageBackend` proxy recording telemetry per operation."""

    def __init__(self, inner: StorageBackend, telemetry: Telemetry):
        # double-wrapping would double-count every statement
        if isinstance(inner, InstrumentedBackend):
            inner = inner.inner
        self.inner = inner
        self.telemetry = telemetry

    # -- delegation -------------------------------------------------------------

    def __getattr__(self, attribute: str) -> Any:
        return getattr(self.inner, attribute)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InstrumentedBackend({self.inner!r})"

    # -- instrumented query path -------------------------------------------------

    def execute(
        self, sql: str, parameters: Optional[Sequence[Any]] = None
    ) -> List[Dict[str, Any]]:
        telemetry = self.telemetry
        kind = telemetry.statement_kind()
        if telemetry.log_sql:
            logger.debug(
                "execute kind=%s params=%d sql=%s",
                kind,
                len(parameters or ()),
                " ".join(sql.split()),
            )
        if telemetry.explain_plans:
            telemetry.capture_plan(self.inner, sql, parameters, kind)
        if not telemetry.enabled:
            return self.inner.execute(sql, parameters)
        with telemetry.span("statement", kind=kind):
            started = time.perf_counter()
            rows = self.inner.execute(sql, parameters)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
        telemetry.record_statement(
            kind, elapsed_ms, rows=len(rows), params=len(parameters or ())
        )
        return rows

    # -- instrumented write/catalog path -------------------------------------------

    def _timed(self, op: str, fn, *args: Any, **kwargs: Any) -> Any:
        telemetry = self.telemetry
        if not telemetry.enabled:
            return fn(*args, **kwargs)
        with telemetry.span(op):
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
        telemetry.metrics.histogram(f"backend_ms.{op}").observe(elapsed_ms)
        return result

    def insert_many(
        self, name: str, rows: Iterable[Mapping[str, Any]]
    ) -> List[int]:
        tids = self._timed("insert_many", self.inner.insert_many, name, rows)
        self.telemetry.inc("backend_rows.insert_many", len(tids))
        return tids

    def apply_delta_batch(self, name: str, batch: Any) -> None:
        self._timed("apply_delta_batch", self.inner.apply_delta_batch, name, batch)
        self.telemetry.inc("backend_rows.apply_delta_batch", batch.statement_count)

    def insert_row(
        self, name: str, row: Mapping[str, Any], tid: Optional[int] = None
    ) -> int:
        return self._timed("insert_row", self.inner.insert_row, name, row, tid)

    def delete_row(self, name: str, tid: int) -> None:
        self._timed("delete_row", self.inner.delete_row, name, tid)

    def update_row(self, name: str, tid: int, changes: Mapping[str, Any]) -> None:
        self._timed("update_row", self.inner.update_row, name, tid, changes)

    def add_relation(self, relation: Any, replace: bool = False) -> None:
        self._timed("add_relation", self.inner.add_relation, relation, replace)

    def create_relation(
        self,
        schema: Any,
        rows: Optional[Iterable[Mapping[str, Any]]] = None,
        replace: bool = False,
    ) -> None:
        self._timed("create_relation", self.inner.create_relation, schema, rows, replace)

    def drop_relation(self, name: str) -> None:
        self._timed("drop_relation", self.inner.drop_relation, name)

    def ensure_index(self, name: str, attributes: Sequence[str]) -> None:
        self._timed("ensure_index", self.inner.ensure_index, name, attributes)

    # -- concurrent serving --------------------------------------------------------

    def read_connection(
        self, snapshot: bool = False, timeout: Optional[float] = None
    ) -> Any:
        """Forward the read-pinning context to the wrapped backend.

        Explicit (rather than via ``__getattr__``) so the concurrent
        serving seam is a stated part of the proxy's contract: statements
        issued through the proxy inside the block still land on the
        pinned connection, because the proxy delegates ``execute`` to the
        same inner backend that did the pinning.
        """
        return self.inner.read_connection(snapshot=snapshot, timeout=timeout)

    def pool_stats(self) -> Dict[str, Any]:
        return self.inner.pool_stats()

    # -- lifecycle (dunder protocol lookups bypass __getattr__) ---------------------

    def close(self) -> None:
        self.inner.close()

    def __enter__(self) -> "InstrumentedBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# isinstance(backend, StorageBackend) must hold for the proxy: the detector
# and facade branch on it when deciding whether an argument is a backend.
StorageBackend.register(InstrumentedBackend)
