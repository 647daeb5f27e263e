"""Configuration for the Semandaq facade."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..backends.registry import available_backends
from ..errors import ConfigurationError


@dataclass
class SemandaqConfig:
    """Tuning knobs of the end-to-end system.

    Attributes
    ----------
    backend:
        Name of the storage backend detection SQL is pushed down to:
        ``"sqlite"`` (the default, the stdlib SQLite backend; it needs
        SQLite 3.25 or newer) or any name registered with
        :func:`repro.backends.register_backend`.
    backend_options:
        Keyword options forwarded to the backend factory.  Without a
        ``path`` the SQLite store is a private ``:memory:`` database;
        ``{"path": "/tmp/semandaq.db"}`` makes it file-backed.
    use_sql_detection:
        Run detection through generated SQL (the paper's technique).  When
        false, the native Python detector reads the working database
        instead (the oracle and ablation path).
    incremental_mode:
        How the data monitor's incremental detector re-checks affected
        groups after an update batch: ``"native"`` maintains group state in
        Python (the original path), ``"sql_delta"`` compiles the re-checks
        to parameterised delta ``Q_C``/``Q_V`` queries pushed down to the
        storage backend's resident copy.
    detect_plan:
        Detection plan family the batch detector and the ``sql_delta``
        incremental detector compile ``Q_C``/``Q_V`` into.  ``"legacy"``
        is the paper's tableau-joined shape; ``"window"`` splits ``Q_C``
        into one statement per pattern row with constant LHS positions
        bound as index-friendly equalities, and compiles ``Q_V`` to a
        one-pass statement that returns violating groups and their member
        rows in a single scan (eliminating the covering-members round
        trip).  ``"auto"`` resolves to ``window``.  ``None`` defers to the
        ``SEMANDAQ_DETECT_PLAN`` environment variable, defaulting to
        ``"auto"``.  Both families produce bit-identical violation
        reports.
    repair_source:
        Where the batch repairer reads its data from.  ``"auto"`` keeps the
        repair backend-resident whenever SQL detection is on: violations,
        group members and value frequencies are answered by the storage
        backend (``GROUP BY``/``COUNT`` aggregates, sargable member
        fetches) and only result-sized rows cross the boundary —
        ``clean()``/``apply_repair`` never call ``to_relation``.
        ``"native"`` forces the original walk over the working
        :class:`~repro.engine.relation.Relation` (the parity oracle and
        the only choice when ``use_sql_detection`` is off).
    repair_fetch_threshold:
        Adaptive ship-back guard of the backend-resident repair: the
        fraction of the relation the closure may fetch row-by-row before
        the source switches to one keyset-paged full scan (fixing the
        blanket-group pathology where nearly every tuple is dirty, e.g.
        uniform noise under ``[CC] -> [CNT]``).  ``None`` disables the
        fallback (pure-resident, the PR 7 behaviour).
    audit_source:
        Where the auditor and the explorer read from.  ``"auto"`` keeps
        them backend-resident whenever SQL detection is on: clean tuples
        are classified by pushed-down applicability aggregates, drill-down
        navigation runs on ``GROUP BY`` histograms and keyset-paged
        fetches, and only the dirty rows are materialised —
        ``audit()``/``explorer()`` never call ``to_relation``.
        ``"native"`` forces the original full-relation walk (the parity
        oracle and the only choice when ``use_sql_detection`` is off).
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
        backend default (4).  Ignored by backends without a pool.
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
    incremental_mode: str = "native"
    detect_plan: Optional[str] = None
    telemetry: bool = False
    explain_plans: bool = False
    log_sql: bool = False
    repair_source: str = "auto"
    repair_fetch_threshold: Optional[float] = 0.5
    audit_source: str = "auto"
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
        if self.backend not in available_backends():
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; "
                f"available: {', '.join(available_backends())}"
            )
        from ..detection.incremental import INCREMENTAL_MODES

        if self.incremental_mode not in INCREMENTAL_MODES:
            raise ConfigurationError(
                f"unknown incremental_mode {self.incremental_mode!r}; "
                f"expected one of {', '.join(INCREMENTAL_MODES)}"
            )
        from ..detection.sqlgen import DETECT_PLANS

        if self.detect_plan is not None and self.detect_plan not in DETECT_PLANS:
            raise ConfigurationError(
                f"unknown detect_plan {self.detect_plan!r}; "
                f"expected one of {', '.join(DETECT_PLANS)}"
            )
        if self.repair_source not in ("auto", "native"):
            raise ConfigurationError(
                f"unknown repair_source {self.repair_source!r}; "
                "expected 'auto' or 'native'"
            )
        if self.repair_fetch_threshold is not None and not (
            0.0 < self.repair_fetch_threshold <= 1.0
        ):
            raise ConfigurationError(
                "repair_fetch_threshold must be in (0, 1] or None"
            )
        if self.audit_source not in ("auto", "native"):
            raise ConfigurationError(
                f"unknown audit_source {self.audit_source!r}; "
                "expected 'auto' or 'native'"
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
