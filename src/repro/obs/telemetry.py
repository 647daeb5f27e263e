"""The telemetry context threaded through the whole stack.

One :class:`Telemetry` object travels from the :class:`~repro.system.semandaq.Semandaq`
facade down through the detectors, the SQL generator and the instrumented
storage backend.  It bundles three independently switchable concerns:

* ``enabled`` — spans (:class:`~repro.obs.trace.Tracer`) and metrics
  (:class:`~repro.obs.metrics.MetricsRegistry`): per-statement-kind timing
  histograms, plan-cache hit/miss counters, sync and DeltaBatch counters;
* ``explain_plans`` — capture ``EXPLAIN QUERY PLAN`` output per distinct
  statement shape through the backend's
  :meth:`~repro.backends.base.StorageBackend.explain_query_plan` hook,
  flagging index usage;
* ``log_sql`` — DEBUG-level statement logging on the ``repro`` logger
  hierarchy.

The module-level :data:`NULL_TELEMETRY` singleton is the disabled default
every component falls back to, so the un-instrumented path pays one
attribute check (``telemetry.enabled`` / ``telemetry.active``) and nothing
else — no spans, no registry lookups, no wrapper objects.

Statement *kinds* (``q_c_sargable``, ``q_window``, ``row_fetch``,
``covering_members``, ...) are carried by the generated
:class:`~repro.detection.sqlgen.SqlQuery` objects and announced to the
instrumented backend through the :meth:`Telemetry.tag_statements` hint,
because the backend's ``execute`` only ever sees SQL text.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

from .metrics import MetricsRegistry
from .trace import Tracer

#: statement kind reported when no generator tagged the running statement
UNTAGGED_KIND = "adhoc"


class _NullSpan:
    """The shared no-op span context the disabled path hands out."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Telemetry:
    """Spans, metrics, statement tagging and plan capture for one system."""

    def __init__(
        self,
        enabled: bool = False,
        explain_plans: bool = False,
        log_sql: bool = False,
    ):
        self.enabled = enabled
        self.explain_plans = explain_plans
        self.log_sql = log_sql
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        #: captured EXPLAIN QUERY PLAN output, one entry per distinct SQL text
        self._plans: Dict[str, Dict[str, Any]] = {}
        self._plans_lock = threading.Lock()
        #: statement-kind hint for the next backend ``execute`` calls (set
        #: by the detectors around each generated query).  Thread-local:
        #: a serving-layer worker's tag must not leak into statements other
        #: threads are executing concurrently.
        self._local = threading.local()

    @property
    def _kind_hint(self) -> Optional[str]:
        return getattr(self._local, "kind_hint", None)

    @_kind_hint.setter
    def _kind_hint(self, value: Optional[str]) -> None:
        self._local.kind_hint = value

    # -- activity --------------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether any concern is on (i.e. the backend needs instrumenting)."""
        return self.enabled or self.explain_plans or self.log_sql

    # -- spans ------------------------------------------------------------------

    def span(self, name: str, **tags: Any):
        """A span context under the tracer; a shared no-op when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return self.tracer.span(name, **tags)

    # -- metrics ----------------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name``; free when telemetry is disabled."""
        if self.enabled:
            self.metrics.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation; free when disabled."""
        if self.enabled:
            self.metrics.histogram(name).observe(value)

    def record_statement(
        self, kind: str, duration_ms: float, rows: int, params: int
    ) -> None:
        """Record one executed statement's duration, result size and arity."""
        if not self.enabled:
            return
        self.metrics.histogram(f"statement_ms.{kind}").observe(duration_ms)
        self.metrics.counter(f"statement_rows.{kind}").inc(rows)
        self.metrics.counter(f"statement_params.{kind}").inc(params)
        self.metrics.counter("statements").inc()

    # -- statement tagging -------------------------------------------------------

    @contextmanager
    def tag_statements(self, kind: Optional[str]) -> Iterator[None]:
        """Tag backend statements executed inside the block with ``kind``.

        The detectors wrap each generated query's execution in this, so the
        instrumented backend can attribute the statement to its generator
        kind (``q_window``, ``q_c_sargable``, ...).  A ``None`` kind keeps the
        surrounding hint.
        """
        previous = self._kind_hint
        if kind is not None:
            self._kind_hint = kind
        try:
            yield
        finally:
            self._kind_hint = previous

    def statement_kind(self) -> str:
        """The kind of the statement about to execute (``adhoc`` untagged)."""
        return self._kind_hint or UNTAGGED_KIND

    # -- plan capture -------------------------------------------------------------

    def capture_plan(
        self,
        backend: Any,
        sql: str,
        parameters: Optional[Sequence[Any]],
        kind: str,
    ) -> None:
        """Capture the backend's query plan for ``sql``, once per SQL text.

        Backends without plan introspection return ``None`` from
        :meth:`~repro.backends.base.StorageBackend.explain_query_plan`;
        nothing is recorded for them.  ``uses_index`` is true when some
        step of the plan is a ``SEARCH`` — an index or primary-key seek.
        A ``SCAN ... USING COVERING INDEX`` reads the whole index, so it
        does not count; the sargability of a statement shape becomes a
        testable property.
        """
        if sql in self._plans:
            return
        detail = backend.explain_query_plan(sql, parameters)
        if detail is None:
            return
        entry = {
            "kind": kind,
            "sql": sql,
            "detail": detail,
            "uses_index": any(
                str(row.get("detail", "")).upper().startswith("SEARCH ")
                for row in detail
            ),
        }
        with self._plans_lock:
            self._plans.setdefault(sql, entry)

    @property
    def plans(self) -> List[Dict[str, Any]]:
        """Captured plans in capture order (one per distinct SQL text)."""
        with self._plans_lock:
            return list(self._plans.values())

    def plans_for(self, kind: str) -> List[Dict[str, Any]]:
        """Captured plans whose statements the generator tagged ``kind``."""
        with self._plans_lock:
            return [plan for plan in self._plans.values() if plan["kind"] == kind]

    # -- snapshot ------------------------------------------------------------------

    def reset(self) -> None:
        """Drop every recorded metric, span and plan (flags unchanged)."""
        self.tracer.reset()
        self.metrics.reset()
        with self._plans_lock:
            self._plans.clear()

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view of everything recorded so far (JSON-ready)."""
        metrics = self.metrics.snapshot()
        return {
            "enabled": self.enabled,
            "counters": metrics["counters"],
            "histograms": metrics["histograms"],
            "spans": self.tracer.snapshot(),
            "plans": self.plans,
        }


#: the shared disabled instance every un-instrumented component defaults to
NULL_TELEMETRY = Telemetry()
