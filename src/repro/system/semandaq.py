"""The Semandaq facade: one object wiring every component together.

This is the library counterpart of the paper's "data quality server": it owns
the database, the constraint engine, the error detector, the data auditor,
the data cleanser and the data monitor, and exposes the end-to-end workflow
the demo walks through:

1. connect data (register relations / load CSV — bulk-synced into the
   configured storage backend, an in-memory SQLite database by default,
   see :mod:`repro.backends`);
2. specify CFDs (textually, as objects, or discovered from reference data);
3. detect violations (SQL-based, pushed down to the storage backend
   selected by ``SemandaqConfig.backend``);
4. audit the data quality (classification, quality map, report);
5. explore (drill-down navigation, per-tuple explanations);
6. repair, review the candidate repair, and apply it;
7. monitor subsequent updates with incremental detection / repair.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Union

from ..audit.report import DataAuditor, DataQualityReport
from ..backends.base import StorageBackend
from ..backends.delta import DeltaBatch
from ..backends.registry import create_backend
from ..core.cfd import CFD
from ..detection.detector import ErrorDetector
from ..detection.violations import ViolationReport
from ..engine.csvio import load_csv
from ..engine.database import Database
from ..engine.relation import Relation
from ..engine.types import RelationSchema
from ..errors import ConfigurationError
from ..explorer.navigation import DataExplorer
from ..explorer.session import ExplorationSession
from ..monitor.monitor import DataMonitor
from ..monitor.updates import Update
from ..obs.instrument import InstrumentedBackend
from ..obs.telemetry import Telemetry
from ..repair.cost import CostModel
from ..repair.repairer import BatchRepairer, Repair
from ..repair.source import BackendRepairSource
from ..repair.review import RepairReview
from ..sources.backend import BackendTupleSource
from .config import SemandaqConfig
from .constraint_engine import ConstraintEngine

#: fraction of the relation the resident repair closure may fetch row by
#: row before its source switches to one keyset-paged full scan (see
#: :class:`~repro.repair.source.BackendRepairSource`)
RESIDENT_FETCH_THRESHOLD = 0.5


class Semandaq:
    """End-to-end CFD-based data quality system."""

    def __init__(
        self,
        config: Optional[SemandaqConfig] = None,
        database: Optional[Database] = None,
        backend: Optional[StorageBackend] = None,
    ):
        self.config = config or SemandaqConfig()
        self.config.validate()
        #: the working store: the native paths (and the native detection
        #: oracle) read it; every relation is mirrored into the backend
        self.database = database or Database()
        if backend is not None:
            self.backend = backend
        else:
            backend_options = dict(self.config.backend_options)
            if self.config.backend == "sqlite":
                # thread the serving-layer knobs through to the reader pool
                # (explicit backend_options win over the config fields)
                if self.config.pool_size is not None:
                    backend_options.setdefault("pool_size", self.config.pool_size)
                backend_options.setdefault(
                    "pool_timeout", self.config.pool_timeout
                )
            self.backend = create_backend(self.config.backend, **backend_options)
        #: the system-wide telemetry sink; shared by the detector, the
        #: monitors and the instrumented backend so ``metrics()`` is one
        #: coherent picture.  Disabled (a no-op) unless the config turns on
        #: ``telemetry``/``explain_plans``/``log_sql``.
        self.telemetry = Telemetry(
            enabled=self.config.telemetry,
            explain_plans=self.config.explain_plans,
            log_sql=self.config.log_sql,
        )
        if self.telemetry.active and not isinstance(self.backend, InstrumentedBackend):
            self.backend = InstrumentedBackend(self.backend, self.telemetry)
        self.constraints = ConstraintEngine(
            self.database,
            check_consistency_on_add=self.config.check_consistency_on_add,
            backend=self.backend,
        )
        # SQL detection runs on the backend; the native detector (the
        # oracle) reads the working database directly
        self.detector = ErrorDetector(
            self.backend if self.config.use_sql_detection else self.database,
            telemetry=self.telemetry,
        )
        self.auditor = DataAuditor(
            majority=self.config.audit_majority,
            quality_levels=self.config.quality_levels,
            quality_strategy=self.config.quality_strategy,
        )
        self.cost_model = CostModel(attribute_weights=dict(self.config.attribute_weights))
        self._reports: Dict[str, ViolationReport] = {}
        self._repairs: Dict[str, Repair] = {}
        self._monitors: Dict[str, DataMonitor] = {}
        #: relations that have been bulk-loaded into the backend at least once
        self._synced: Set[str] = set()
        #: relations whose backend copy is known to lag the working store
        #: (set when the working store mutates outside the delta-shipping
        #: paths; cleared by the next full sync)
        self._stale: Set[str] = set()
        #: guards the sync-state sets and the sync decision itself, so
        #: concurrent ``serve()`` workers cannot race a bulk re-sync (two
        #: threads both seeing "never synced" would double-load)
        self._sync_lock = threading.RLock()
        #: number of whole-relation bulk loads shipped to the backend
        #: (``add_relation(replace=True)``); tests and benchmarks read this
        #: to assert the delta paths avoid full re-syncs
        self.full_sync_count = 0

    # -- step 1: connect data -------------------------------------------------------------

    def register_relation(
        self,
        schema_or_relation: Union[RelationSchema, Relation],
        rows: Optional[Iterable[Mapping[str, Any]]] = None,
        replace: bool = False,
    ) -> Relation:
        """Register a relation (by schema + rows, or an existing Relation object)."""
        if isinstance(schema_or_relation, Relation):
            relation = self.database.add_relation(schema_or_relation, replace=replace)
        else:
            relation = self.database.create_relation(
                schema_or_relation,
                rows=[dict(row) for row in rows or []],
                replace=replace,
            )
        self._on_relation_replaced(relation.name)
        return relation

    def load_csv(self, source: str, name: str, **kwargs: Any) -> Relation:
        """Load a CSV file (or CSV text) and register it under ``name``.

        The loaded relation is bulk-synced into the storage backend (an
        ``executemany`` batch on SQLite) so detection can push down to it.
        """
        relation = load_csv(source, name, **kwargs)
        self.database.add_relation(relation, replace=True)
        self._on_relation_replaced(name)
        return relation

    def _on_relation_replaced(self, relation_name: str) -> None:
        """Bookkeeping after the working copy of a relation was swapped out.

        Any cached monitor is bound to the replaced :class:`Relation` object;
        left in place it would keep mirroring deltas from that ghost into the
        backend — and so would a reference to it still held by user code, so
        its backend is detached as well.  A fresh monitor is created on the
        next ``monitor()`` call, bound to the new data; the stale detection
        report is dropped and the new contents bulk-loaded.
        """
        self._retire_monitor(relation_name)
        self._reports.pop(relation_name, None)
        self._sync_backend(relation_name)

    def _retire_monitor(self, relation_name: str) -> bool:
        """Drop and detach the monitor of ``relation_name``, if there is one.

        The retired monitor is bound to a replaced :class:`Relation`;
        detaching it keeps a reference still held by user code from
        mirroring ghost deltas into the backend copy of the new data.
        """
        retired = self._monitors.pop(relation_name, None)
        if retired is None:
            return False
        retired.detach_backend()
        return True

    def _restart_monitor(self, relation_name: str) -> None:
        """Replace a live monitor of ``relation_name`` with a cleansed one."""
        if self._retire_monitor(relation_name):
            self._monitors[relation_name] = self._make_monitor(
                relation_name, cleansed=True
            )

    def _sync_backend(self, relation_name: str) -> None:
        """Mirror the working copy of ``relation_name`` into the backend.

        This is the paper's load step: the relation is bulk-loaded so
        detection SQL can run against the database server.
        """
        with self._sync_lock:
            self.backend.add_relation(
                self.database.relation(relation_name), replace=True
            )
            self._synced.add(relation_name)
            self._stale.discard(relation_name)
            self.full_sync_count += 1
            self.telemetry.inc("sync.full")
            monitor = self._monitors.get(relation_name)
            if monitor is not None:
                monitor.mark_backend_resynced()

    def _backend_lags(self, relation_name: str) -> bool:
        """Whether the backend copy of ``relation_name`` may be out of date.

        That is: the relation was never synced, it was explicitly marked
        stale, or its monitor failed to ship a delta batch.
        """
        monitor = self._monitors.get(relation_name)
        return (
            relation_name not in self._synced
            or relation_name in self._stale
            or (monitor is not None and monitor.backend_desynced)
        )

    def _sync_backend_if_stale(self, relation_name: str) -> None:
        """Re-sync only when the backend copy may be out of date.

        See :meth:`_backend_lags`.  Monitored relations no longer force a
        whole-relation reload: the monitor ships every applied update (and
        every incremental-repair change) down to the backend as a per-tid
        delta, so the backend copy tracks the working store continuously.  Facade-level mutations
        (``register_relation``/``load_csv``) sync eagerly and
        ``apply_repair`` ships per-tid deltas, so repeated ``detect`` calls
        never bulk-reload a relation that is already current.
        """
        with self._sync_lock:
            if self._backend_lags(relation_name):
                self._sync_backend(relation_name)

    def mark_backend_stale(self, relation_name: str) -> None:
        """Flag ``relation_name`` for a full re-sync before the next detect.

        Call this after mutating the working database directly (outside the
        monitor and repair paths, which keep the backend current on their
        own).
        """
        with self._sync_lock:
            self._stale.add(relation_name)

    def schema_summary(self) -> Dict[str, List[str]]:
        """The automatically discovered schema shown after connecting."""
        return self.database.schema_summary()

    # -- step 2: specify constraints ---------------------------------------------------------

    def add_cfd(self, cfd: Union[CFD, str], default_relation: Optional[str] = None) -> CFD:
        """Register one CFD, given as an object or in the textual syntax."""
        if isinstance(cfd, str):
            return self.constraints.add_text(cfd, default_relation=default_relation)
        return self.constraints.add_cfd(cfd, name=cfd.name)

    def add_cfds(
        self, cfds: Iterable[Union[CFD, str]], default_relation: Optional[str] = None
    ) -> List[CFD]:
        """Register several CFDs."""
        return [self.add_cfd(cfd, default_relation=default_relation) for cfd in cfds]

    def discover_cfds(self, reference: Relation, register: bool = True, **kwargs: Any) -> List[CFD]:
        """Discover CFDs from reference data (see :class:`ConstraintEngine.discover_from`)."""
        return self.constraints.discover_from(reference, register=register, **kwargs)

    def check_constraints(self, relation: Optional[str] = None):
        """Satisfiability check of the registered CFDs."""
        return self.constraints.consistency(relation)

    # -- step 3: detect ------------------------------------------------------------------------

    def detect(self, relation_name: str) -> ViolationReport:
        """Run (SQL-based) violation detection for every CFD on ``relation_name``.

        The backend copy is expected to be current: bulk loads happen at
        registration, monitors ship every applied update down as a per-tid
        delta, and ``apply_repair`` ships repaired cells as per-tid UPDATEs.
        A full re-sync therefore only happens when the relation was never
        loaded or was explicitly marked stale
        (:meth:`mark_backend_stale`).
        """
        self._sync_backend_if_stale(relation_name)
        cfds = self.constraints.cfds(relation_name)
        report = self.detector.detect(relation_name, cfds)
        self._reports[relation_name] = report
        return report

    def detect_for_tuples(
        self, relation_name: str, tids: Iterable[int]
    ) -> ViolationReport:
        """Violations involving any tuple in ``tids`` (restricted detection).

        On the SQL path the restriction is pushed down to the storage
        backend (delta ``Q_C``/``Q_V`` plans over the named tids and their
        LHS-value groups) instead of filtering a full detection report.
        The result is partial by construction, so it is *not* cached as
        the relation's last report.
        """
        self._sync_backend_if_stale(relation_name)
        cfds = self.constraints.cfds(relation_name)
        return self.detector.detect_for_tuples(relation_name, cfds, tids)

    def serve(
        self,
        relation_name: str,
        requests: Sequence[Iterable[int]],
        max_workers: Optional[int] = None,
    ) -> List[ViolationReport]:
        """Answer many ``detect_for_tuples`` requests concurrently.

        This is the serving-layer entry point: each element of
        ``requests`` is one application's tid set, and the requests are
        fanned across a thread pool of ``max_workers`` threads
        (``SemandaqConfig.serve_threads`` by default).  On a file-backed
        SQLite store each worker checks a read-only connection out of the
        reader pool and runs its detection inside one snapshot, so
        requests proceed in parallel with each other *and* with a monitor
        streaming update batches through the writer connection.  Results
        are returned in request order.  With one worker (or one request)
        the requests run serially on the calling thread.
        """
        self._sync_backend_if_stale(relation_name)
        cfds = self.constraints.cfds(relation_name)
        workers = max_workers if max_workers is not None else self.config.serve_threads
        if workers < 1:
            raise ConfigurationError("max_workers must be at least 1")
        tid_sets = [list(tids) for tids in requests]
        if workers == 1 or len(tid_sets) <= 1:
            return [
                self.detector.detect_for_tuples(relation_name, cfds, tids)
                for tids in tid_sets
            ]
        with ThreadPoolExecutor(max_workers=workers) as executor:
            futures = [
                executor.submit(
                    self.detector.detect_for_tuples, relation_name, cfds, tids
                )
                for tids in tid_sets
            ]
            return [future.result() for future in futures]

    def last_report(self, relation_name: str) -> ViolationReport:
        """The most recent detection report for ``relation_name`` (detects if missing)."""
        if relation_name not in self._reports:
            return self.detect(relation_name)
        return self._reports[relation_name]

    # -- step 4: audit ----------------------------------------------------------------------------

    def _tuple_source(self, relation_name: str) -> BackendTupleSource:
        self._sync_backend_if_stale(relation_name)
        return BackendTupleSource(
            self.backend, relation_name, telemetry=self.telemetry
        )

    def audit(self, relation_name: str) -> DataQualityReport:
        """Summarise the quality of ``relation_name`` from the latest detection.

        With SQL detection on the audit runs backend-resident: the dirty
        rows come from one ``row_fetch``, the clean-tuple categories from
        pushed-down applicability aggregates, and the quality map's tid
        universe from the catalog row count — the working store is never
        read row-by-row.  With it off the auditor walks the working
        relation (the oracle).
        """
        report = self.last_report(relation_name)
        cfds = self.constraints.cfds(relation_name)
        if self.config.use_sql_detection:
            self.telemetry.inc("audit.source_resident")
            return self.auditor.audit_source(
                self._tuple_source(relation_name), cfds, report
            )
        return self.auditor.audit(self.database.relation(relation_name), cfds, report)

    # -- step 5: explore --------------------------------------------------------------------------

    def explorer(self, relation_name: str) -> DataExplorer:
        """A drill-down explorer over the latest detection results.

        With SQL detection on every navigation step is answered by
        pushed-down aggregates and keyset-paged fetches; only the dirty rows
        and the visible page of tuples are ever materialised.
        """
        report = self.last_report(relation_name)
        cfds = self.constraints.cfds(relation_name)
        if self.config.use_sql_detection:
            return DataExplorer(self._tuple_source(relation_name), cfds, report)
        return DataExplorer(self.database.relation(relation_name), cfds, report)

    def exploration_session(self, relation_name: str) -> ExplorationSession:
        """A stateful exploration session (the Fig. 2 walk-through)."""
        report = self.last_report(relation_name)
        cfds = self.constraints.cfds(relation_name)
        if self.config.use_sql_detection:
            return ExplorationSession(
                self._tuple_source(relation_name), cfds, report
            )
        return ExplorationSession(
            self.database.relation(relation_name), cfds, report
        )

    # -- step 6: repair and review -----------------------------------------------------------------

    def repair(self, relation_name: str, cost_model: Optional[CostModel] = None) -> Repair:
        """Compute a candidate repair of ``relation_name``.

        With SQL detection on the repair is planned over a
        backend-resident data source: violations come from the pushed-down
        ``detect()``, group members from the sargable covering-members
        plans and value frequencies from ``GROUP BY`` aggregates — only
        result-sized rows cross the backend boundary and the working
        relation is never walked.  With it off the repairer walks the
        working relation (the parity oracle).
        """
        cfds = self.constraints.cfds(relation_name)
        repairer = BatchRepairer(
            cost_model=cost_model or self.cost_model,
            max_iterations=self.config.repair_max_iterations,
            telemetry=self.telemetry,
        )
        if self.config.use_sql_detection:
            self._sync_backend_if_stale(relation_name)
            source = BackendRepairSource(
                self.backend,
                relation_name,
                telemetry=self.telemetry,
                detector=self.detector,
                fetch_threshold=RESIDENT_FETCH_THRESHOLD,
            )
            repair = repairer.repair_with_source(source, cfds)
            self.telemetry.inc("repair.source_resident")
            self.telemetry.inc(
                "repair.fetch_fraction", int(round(100 * source.fetch_fraction()))
            )
        else:
            repair = repairer.repair(self.database.relation(relation_name), cfds)
        self.telemetry.inc("repair.cells_changed", len(repair.changes))
        self._repairs[relation_name] = repair
        return repair

    def _hydrate_repair(self, relation_name: str, repair: Repair) -> Repair:
        """Expand a backend-resident repair to full-relation form.

        A resident repair's ``original``/``repaired`` hold only the partial
        relation the planner fetched; review and the replace-style apply
        path need whole relations, so the change list (the complete ground
        truth) is replayed over a copy of the working store.
        """
        original = self.database.relation(relation_name)
        repaired = original.copy()
        for change in repair.changes:
            if change.tid in repaired:
                repaired.update(change.tid, {change.attribute: change.new_value})
        return Repair(
            original=original,
            repaired=repaired,
            changes=repair.changes,
            iterations=repair.iterations,
            residual_violations=repair.residual_violations,
            source=repair.source,
        )

    def review(self, relation_name: str) -> RepairReview:
        """An interactive review of the latest candidate repair."""
        if relation_name not in self._repairs:
            self.repair(relation_name)
        repair = self._repairs[relation_name]
        if repair.source == "backend":
            repair = self._hydrate_repair(relation_name, repair)
        return RepairReview(repair, self.constraints.cfds(relation_name))

    def apply_repair(self, relation_name: str, reviewed: Optional[Relation] = None) -> Relation:
        """Replace the stored relation with the repaired (or reviewed) version.

        The backend copy is brought up to date by shipping one UPDATE per
        repaired tuple (the repair's cell changes) instead of bulk-reloading
        the whole relation; a full re-sync only happens when the tuple-id
        sets diverge (something other than cell repairs changed the data) or
        the relation was never loaded.  Also invalidates cached detection
        reports and switches any monitor of the relation to "cleansed" mode.
        """
        if relation_name not in self._repairs and reviewed is None:
            raise ConfigurationError(
                f"no candidate repair for {relation_name!r}; call repair() first"
            )
        if reviewed is None and self._repairs[relation_name].source == "backend":
            return self._apply_repair_resident(
                relation_name, self._repairs[relation_name]
            )
        new_relation = reviewed or self._repairs[relation_name].repaired
        replacement = new_relation.copy()
        old_relation = (
            self.database.relation(relation_name)
            if self.database.has_relation(relation_name)
            else None
        )
        self.database.add_relation(replacement, replace=True)
        self._ship_backend_delta(relation_name, old_relation, replacement)
        self._reports.pop(relation_name, None)
        self._restart_monitor(relation_name)
        return replacement

    def _apply_repair_resident(self, relation_name: str, repair: Repair) -> Relation:
        """Apply a backend-resident repair without materialising the relation.

        The repair's change list is the complete ground truth, so the
        replacement relation is rebuilt from the working copy plus the
        changes (a Python-side copy — the backend is never asked to ship
        rows back) and the same changes travel to the backend as one
        :class:`DeltaBatch`.  A pushed-down ``detect_for_tuples`` over the
        changed tids is the safety net that replaces the native
        ``verify_untouched`` walk (any violations it still finds are
        surfaced as the ``repair.post_check_violations`` counter).
        """
        replacement = self._hydrate_repair(relation_name, repair).repaired
        self.database.add_relation(replacement, replace=True)
        batch = DeltaBatch(relation=relation_name)
        for change in repair.changes:
            if change.tid in replacement:
                batch.record_update(change.tid, {change.attribute: change.new_value})
        if self._backend_lags(relation_name):
            self._sync_backend(relation_name)
        elif not batch.is_empty():
            self.backend.apply_delta_batch(relation_name, batch)
            self.telemetry.inc("sync.delta_batches")
        self._reports.pop(relation_name, None)
        changed = sorted(repair.changed_tids())
        if changed:
            post = self.detector.detect_for_tuples(
                relation_name, self.constraints.cfds(relation_name), changed
            )
            self.telemetry.inc(
                "repair.post_check_violations", post.total_violations()
            )
        self._restart_monitor(relation_name)
        return replacement

    def _ship_backend_delta(
        self,
        relation_name: str,
        old_relation: Optional[Relation],
        new_relation: Relation,
    ) -> None:
        """Bring the backend copy from ``old_relation`` to ``new_relation``.

        When the backend copy was current (synced, not stale) and the tuple-id
        sets agree — repairs only modify cell values — the changed cells are
        shipped as per-tid UPDATE statements.  Anything else falls back to a
        full bulk re-sync.

        The diff is computed from the in-memory relations (one pass over
        each, no backend round trips), so it is robust against the working
        store having drifted since ``repair()`` — e.g. monitor updates in
        between — where replaying the repair's recorded cell changes would
        silently miss the reverted cells.  ``apply_repair`` already
        materialises a full copy of the relation, so the diff adds a
        constant factor, not a new asymptotic cost; only the changed cells
        travel to the backend.
        """
        if old_relation is None or self._backend_lags(relation_name):
            self._sync_backend(relation_name)
            return
        old_rows = dict(old_relation.rows())
        new_rows = dict(new_relation.rows())
        if old_rows.keys() != new_rows.keys():
            self._sync_backend(relation_name)
            return
        attributes = new_relation.attribute_names
        batch = DeltaBatch(relation=relation_name)
        for tid, old_row in old_rows.items():
            new_row = new_rows[tid]
            changes = {
                attr: new_row.get(attr)
                for attr in attributes
                if old_row.get(attr) != new_row.get(attr)
            }
            if changes:
                batch.record_update(tid, changes)
        if not batch.is_empty():
            self.backend.apply_delta_batch(relation_name, batch)
            self.telemetry.inc("sync.delta_batches")

    # -- step 7: monitor -----------------------------------------------------------------------------

    def monitor(self, relation_name: str, cleansed: Optional[bool] = None) -> DataMonitor:
        """The data monitor of ``relation_name`` (created on first use)."""
        if relation_name not in self._monitors:
            self._monitors[relation_name] = self._make_monitor(
                relation_name,
                cleansed=bool(cleansed) if cleansed is not None else relation_name in self._repairs,
            )
        elif cleansed is not None:
            if cleansed:
                self._monitors[relation_name].mark_cleansed()
            else:
                self._monitors[relation_name].mark_dirty()
        return self._monitors[relation_name]

    def apply_updates(self, relation_name: str, updates: Iterable[Update]) -> List[Optional[int]]:
        """Apply a batch of updates to a monitored relation.

        The whole batch flows through the relation's data monitor and on to
        the storage backend as one coalesced
        :class:`~repro.backends.delta.DeltaBatch` (a single transaction on
        SQLite).  Returns the affected tid per update (new tids for
        inserts).  The monitor is created on first use, so this is also the
        one-call way to start monitoring a relation.
        """
        return self.monitor(relation_name).apply_batch(updates)

    def _make_monitor(self, relation_name: str, cleansed: bool) -> DataMonitor:
        # a fresh monitor only mirrors updates applied from now on, so the
        # backend copy must be current before delta shipping takes over
        self._sync_backend_if_stale(relation_name)
        return DataMonitor(
            self.database,
            relation_name,
            self.constraints.cfds(relation_name),
            cost_model=self.cost_model,
            cleansed=cleansed,
            backend=self.backend,
            telemetry=self.telemetry,
        )

    # -- observability -----------------------------------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """Snapshot of every metric collected so far, as plain dicts.

        Returns ``{"enabled", "counters", "histograms", "spans", "plans"}``:
        per-statement-kind timing histograms (``statement_ms.q_window`` ...),
        plan-cache and delta counters, the recorded span trees, and — in
        ``explain_plans`` mode — one captured query plan per distinct
        statement shape with its ``uses_index`` verdict.  Everything is
        JSON-serialisable; with telemetry off the snapshot is empty but
        well-formed.

        On a pooled SQLite backend the snapshot's counters additionally
        carry the reader pool's live acquisition statistics
        (``pool.size``/``pool.open``/``pool.acquired``/``pool.wait_ms``/
        ``pool.timeouts``), folded in at snapshot time.
        """
        snapshot = self.telemetry.snapshot()
        pool_stats = self.backend.pool_stats()
        if pool_stats:
            snapshot["counters"] = {**snapshot["counters"], **pool_stats}
        return snapshot

    def trace(self, name: str, **tags: Any):
        """Open a named span around a block of user code.

        Usage: ``with system.trace("nightly-clean", relation="customer"): ...``
        — the spans of every detect/sync that runs inside nest under it in
        :meth:`metrics`.  A no-op context manager when telemetry is off.
        """
        return self.telemetry.span(name, **tags)

    def reset_metrics(self) -> None:
        """Clear every collected counter, histogram, span and captured plan."""
        self.telemetry.reset()

    # -- lifecycle ---------------------------------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (e.g. the SQLite connection).

        File-backed stores close their connections so the database file
        is unlocked.  Monitors are detached first, so one still held by
        user code keeps working against the working store instead of
        shipping deltas to a closed backend.  Every later call that needs
        the backend raises :class:`~repro.errors.BackendError`.  Detection
        adds no relation to the backend, so a caller-supplied backend
        holds only what the system loaded into it.
        """
        for monitor in self._monitors.values():
            monitor.detach_backend()
        self.backend.close()

    def __enter__(self) -> "Semandaq":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- one-shot pipeline ------------------------------------------------------------------------------

    def clean(self, relation_name: str) -> Dict[str, Any]:
        """Detect → repair → apply, returning a summary of each step.

        The dirty percentage is derived from the detection report (tuples
        involved in at least one violation) rather than the auditor's
        classification, so the backend-resident and native repair paths
        report identical summaries; call :meth:`audit` for the finer
        clean/dirty categorisation.  On the resident path every stage runs
        against the storage backend and only result-sized rows —
        violations, group members, aggregates, the repair diff — cross the
        boundary.
        """
        report = self.detect(relation_name)
        dirty_pct = (
            100.0 * len(report.dirty_tids()) / report.tuple_count
            if report.tuple_count
            else 0.0
        )
        repair = self.repair(relation_name)
        self.apply_repair(relation_name)
        post_report = self.detect(relation_name)
        return {
            "violations_before": report.total_violations(),
            "dirty_tuples_before": len(report.dirty_tids()),
            "dirty_percentage_before": dirty_pct,
            "cells_changed": len(repair.changes),
            "repair_cost": repair.total_cost,
            "violations_after": post_report.total_violations(),
            "dirty_tuples_after": len(post_report.dirty_tids()),
        }
