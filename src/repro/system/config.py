"""Configuration for the Semandaq facade."""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..backends.sqlite import SqliteBackend
from ..errors import ConfigurationError

#: :class:`~repro.backends.sqlite.SqliteBackend` parameters the config
#: sets through fields of the same name
_POOL_FIELDS = ("pool_size", "pool_timeout")

#: the keyword options ``backend_options`` may carry: the other parameters
#: of :class:`~repro.backends.sqlite.SqliteBackend`
_BACKEND_OPTIONS = tuple(
    name
    for name in inspect.signature(SqliteBackend.__init__).parameters
    if name != "self" and name not in _POOL_FIELDS
)


@dataclass
class SemandaqConfig:
    """Tuning knobs of the end-to-end system.

    Attributes
    ----------
    backend:
        Name of the storage backend detection SQL is pushed down to.
        ``"sqlite"`` (the stdlib SQLite backend; it needs SQLite 3.25 or
        newer) is the only one; the field stays so a configuration can
        name it.
    backend_options:
        Keyword arguments of :class:`~repro.backends.sqlite.SqliteBackend`:
        ``path``, ``synchronous`` and ``max_parameters``.  Any other key,
        ``pool_size`` and ``pool_timeout`` included (they are the fields
        below), is a :class:`ConfigurationError`.  Without a ``path`` the
        SQLite store is a private ``:memory:`` database;
        ``{"path": "/tmp/semandaq.db"}`` makes it file-backed.
    use_sql_detection:
        Run detection through generated SQL (the paper's technique) and
        keep repair, audit and exploration backend-resident: violations,
        group members and value frequencies are answered by the storage
        backend and only result-sized rows cross the boundary.  When
        false, the native Python detector, repairer, auditor and explorer
        walk the working database instead (the oracles every resident
        path must match).  The data monitor's incremental detector keeps
        its group state in Python either way.
    repair_max_iterations:
        Round limit of the heuristic repair algorithm.
    audit_majority:
        Fraction of jointly violating tuples that must agree with a tuple for
        it to be classified "arguably clean".
    quality_levels / quality_strategy:
        Number of shades and bucketing strategy of the data quality map
        (``"linear"`` or ``"quantile"``).
    attribute_weights:
        Default cost-model weights per attribute (higher = more trusted).
    check_consistency_on_add:
        Whether the constraint engine verifies satisfiability every time a
        CFD is registered.
    telemetry:
        Record spans and metrics (statement timings by kind, plan-cache and
        delta counters) for every detection and sync the system runs;
        snapshot them with :meth:`repro.system.semandaq.Semandaq.metrics`.
        Off by default: the disabled telemetry object is a shared no-op and
        the backend is never wrapped.
    explain_plans:
        Capture the backend's query plan (``EXPLAIN QUERY PLAN`` on SQLite)
        once per distinct detection-statement shape, reporting whether the
        plan rides an index.  Independent of ``telemetry``.
    log_sql:
        Log every backend statement at DEBUG level on the
        ``repro.obs.instrument`` logger (the package root logger carries a
        ``NullHandler``; attach a handler to see the output).
    pool_size:
        Size of the SQLite reader-connection pool the concurrent serving
        layer hands out to worker threads (file-backed stores only; a
        ``:memory:`` database is private to its connection, so the pool
        is disabled there regardless).  ``0`` forces single-connection
        mode — every read shares the writer connection under its lock —
        which is the THROUGHPUT benchmark's baseline.  ``None`` keeps the
        backend default (4).
    serve_threads:
        Default worker-thread count of :meth:`Semandaq.serve`, the
        concurrent entry point fanning ``detect_for_tuples`` requests
        across a thread pool.
    pool_timeout:
        Seconds a reader waits for a pooled connection before raising
        ``PoolTimeoutError`` (pool exhaustion blocks, bounded by this).
    """

    backend: str = "sqlite"
    backend_options: Dict[str, Any] = field(default_factory=dict)
    use_sql_detection: bool = True
    telemetry: bool = False
    explain_plans: bool = False
    log_sql: bool = False
    repair_max_iterations: int = 25
    audit_majority: float = 0.5
    quality_levels: int = 5
    quality_strategy: str = "linear"
    attribute_weights: Dict[str, float] = field(default_factory=dict)
    check_consistency_on_add: bool = True
    pool_size: Optional[int] = None
    serve_threads: int = 4
    pool_timeout: float = 30.0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on out-of-range settings."""
        if self.backend != "sqlite":
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; available: sqlite"
            )
        for name in _POOL_FIELDS:
            if name in self.backend_options:
                raise ConfigurationError(
                    f"backend_options cannot carry {name!r}; "
                    f"set SemandaqConfig.{name} instead"
                )
        unknown = sorted(set(self.backend_options) - set(_BACKEND_OPTIONS))
        if unknown:
            raise ConfigurationError(
                f"unknown backend_options {unknown} for the sqlite backend; "
                f"it takes {', '.join(_BACKEND_OPTIONS)}"
            )
        if self.repair_max_iterations < 1:
            raise ConfigurationError("repair_max_iterations must be at least 1")
        if not 0.0 <= self.audit_majority < 1.0:
            raise ConfigurationError("audit_majority must be in [0, 1)")
        if self.quality_levels < 2:
            raise ConfigurationError("quality_levels must be at least 2")
        if self.quality_strategy not in ("linear", "quantile"):
            raise ConfigurationError(
                f"unknown quality_strategy {self.quality_strategy!r}"
            )
        for attribute, weight in self.attribute_weights.items():
            if weight <= 0:
                raise ConfigurationError(
                    f"attribute weight for {attribute!r} must be positive"
                )
        if self.pool_size is not None and self.pool_size < 0:
            raise ConfigurationError("pool_size must be >= 0 or None")
        if self.serve_threads < 1:
            raise ConfigurationError("serve_threads must be at least 1")
        if self.pool_timeout <= 0:
            raise ConfigurationError("pool_timeout must be positive")
