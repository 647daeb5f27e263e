"""The Semandaq facade: one object wiring every component together.

This is the library counterpart of the paper's "data quality server": it owns
the database, the constraint engine, the error detector, the data auditor,
the data cleanser and the data monitor, and exposes the end-to-end workflow
the demo walks through:

1. connect data (register relations / load CSV — bulk-synced into the
   configured storage backend, an in-memory SQLite database by default,
   see :mod:`repro.backends`);
2. specify CFDs (textually, as objects, or discovered from reference data);
3. detect violations (SQL-based, pushed down to the SQLite backend);
4. audit the data quality (classification, quality map, report);
5. explore (drill-down navigation, per-tuple explanations);
6. repair, review the candidate repair, and apply it;
7. monitor subsequent updates with incremental detection / repair.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..audit.report import DataAuditor, DataQualityReport
from ..backends.base import StorageBackend
from ..backends.delta import DeltaBatch
from ..backends.sqlite import SqliteBackend
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


@dataclass
class _Detected:
    """A cached detection report of one relation and the reads derived from it."""

    report: ViolationReport
    #: the CFDs the report was computed with
    cfds: Tuple[CFD, ...]
    #: the relation's monitor's ``changes_applied`` when the report was
    #: computed (0 without a monitor)
    changes: int
    #: the resident read layer over the report (SQL path only), built on
    #: first use and dropped with the report; it keeps the report's dirty
    #: region (:meth:`~repro.sources.base.TupleSource.dirty_region`), so
    #: the audit, the explorers and the repair fetch it once between them
    tuples: Optional[BackendTupleSource] = None
    #: the candidate repair planned from the report (see
    #: :meth:`Semandaq.repair`); it is current exactly as long as the
    #: report is, and goes with it
    repair: Optional[Repair] = None

    def holds(self, cfds: Sequence[CFD], changes: int) -> bool:
        """Whether the report describes a relation under ``cfds`` after ``changes``.

        It does while the registered CFDs are the ones it was computed
        with and the change count has not moved.
        """
        return changes == self.changes and _same_cfds(self.cfds, cfds)


def _same_cfds(mine: Sequence[CFD], theirs: Sequence[CFD]) -> bool:
    """Whether two CFD lists hold the same objects in the same order."""
    return len(mine) == len(theirs) and all(
        one is other for one, other in zip(mine, theirs)
    )


class Semandaq:
    """End-to-end CFD-based data quality system."""

    def __init__(self, config: Optional[SemandaqConfig] = None):
        self.config = config or SemandaqConfig()
        self.config.validate()
        #: the working store: the native paths (and the native detection
        #: oracle) read it; every relation is mirrored into the backend
        self.database = Database()
        self.backend: StorageBackend = SqliteBackend(
            pool_size=self.config.pool_size,
            pool_timeout=self.config.pool_timeout,
            **self.config.backend_options,
        )
        #: the system-wide telemetry sink; shared by the detector, the
        #: monitors and the instrumented backend so ``metrics()`` is one
        #: coherent picture.  Disabled (a no-op) unless the config turns on
        #: ``telemetry``/``explain_plans``/``log_sql``.
        self.telemetry = Telemetry(
            enabled=self.config.telemetry,
            explain_plans=self.config.explain_plans,
            log_sql=self.config.log_sql,
        )
        if self.telemetry.active:
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
        #: the latest detection per relation; guarded by ``_sync_lock``
        self._reports: Dict[str, _Detected] = {}
        #: the repair last applied to each relation (None for a reviewed
        #: relation applied without a current candidate), kept until the
        #: relation is replaced: a new monitor of a relation listed here
        #: starts in repair mode
        self._applied: Dict[str, Optional[Repair]] = {}
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
            # the relation coerces each row into a dict of its own
            relation = self.database.create_relation(
                schema_or_relation, rows=rows, replace=replace
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
        report goes with its candidate repair, the new contents are
        bulk-loaded, and the relation counts as never repaired: a new
        monitor starts in detect mode.
        """
        self._retire_monitor(relation_name)
        self._drop_report(relation_name)
        self._applied.pop(relation_name, None)
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
        whole-relation reload: the monitor ships every applied update batch
        (and every incremental repair) down to the backend as one
        :class:`~repro.backends.delta.DeltaBatch`, so the backend copy
        tracks the working store continuously.  Facade-level mutations
        (``register_relation``/``load_csv``) sync eagerly and
        ``apply_repair`` ships a batch too, so repeated ``detect`` calls
        never bulk-reload a relation that is already current.
        """
        with self._sync_lock:
            if self._backend_lags(relation_name):
                self._sync_backend(relation_name)

    def mark_backend_stale(self, relation_name: str) -> None:
        """Flag ``relation_name`` for a full re-sync before the next detect.

        Call this after mutating the working database directly (outside the
        monitor and repair paths, which keep the backend current on their
        own).  The cached detection report no longer describes the data,
        so it is dropped with its dirty region and its candidate repair.
        A live monitor of the relation rebuilds its violation state from
        the edited rows, keeping its mode, log and backend, so one held by
        user code keeps reporting and shipping correctly.
        """
        with self._sync_lock:
            self._stale.add(relation_name)
            self._drop_report(relation_name)
            monitor = self._monitors.get(relation_name)
            if monitor is not None:
                monitor.use_cfds(monitor.cfds)

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
        registration, and monitors and ``apply_repair`` ship every change
        down as one :class:`~repro.backends.delta.DeltaBatch`.
        A full re-sync therefore only happens when the relation was never
        loaded or was explicitly marked stale
        (:meth:`mark_backend_stale`).  The report replaces the cached one,
        and with it that report's dirty region.  Re-detecting a relation
        nothing changed keeps its candidate repair current: the repair
        moves to the new report.
        """
        return self._detect(relation_name).report

    def _detect(self, relation_name: str) -> _Detected:
        self._sync_backend_if_stale(relation_name)
        cfds = tuple(self.constraints.cfds(relation_name))
        # counted before the detection runs: a change made meanwhile makes
        # the report look stale, never current
        changes = self._changes_applied(relation_name)
        previous = self._cached(relation_name)
        detected = _Detected(
            self.detector.detect(relation_name, cfds), cfds, changes
        )
        with self._sync_lock:
            if previous is not None and self._reports.get(relation_name) is previous:
                detected.repair = previous.repair
            self._reports[relation_name] = detected
        return detected

    def _changes_applied(self, relation_name: str) -> int:
        monitor = self._monitors.get(relation_name)
        return monitor.changes_applied if monitor is not None else 0

    def _cached(self, relation_name: str) -> Optional[_Detected]:
        """The cached detection of ``relation_name`` if it is still current.

        A cached report stays current while nothing changed the relation
        or its CFDs since it was computed.  The facade's own mutating
        paths (``apply_updates``, ``apply_repair``, ``register_relation``,
        ``load_csv``) and :meth:`mark_backend_stale` drop it; updates
        applied through the monitor the facade built, directly or not,
        move the monitor's :attr:`~repro.monitor.monitor.DataMonitor.changes_applied`;
        and a CFD added, replaced or removed changes the relation's CFD
        list (see :meth:`_Detected.holds`).  The decision reads neither
        the working store nor the backend.
        """
        cfds = self.constraints.cfds(relation_name)
        with self._sync_lock:
            detected = self._reports.get(relation_name)
            if detected is not None and detected.holds(
                cfds, self._changes_applied(relation_name)
            ):
                return detected
        return None

    def _current(self, relation_name: str) -> _Detected:
        """The cached detection of ``relation_name`` if still current, else a fresh one."""
        detected = self._cached(relation_name)
        return detected if detected is not None else self._detect(relation_name)

    def _candidate(self, relation_name: str) -> Optional[Repair]:
        """The candidate repair of ``relation_name`` if it is still current."""
        detected = self._cached(relation_name)
        return detected.repair if detected is not None else None

    def _drop_report(self, relation_name: str) -> None:
        """Forget the cached report of ``relation_name`` and its dirty region."""
        with self._sync_lock:
            self._reports.pop(relation_name, None)

    def _tuple_source(self, relation_name: str, detected: _Detected) -> BackendTupleSource:
        """The resident read layer over ``detected``'s report, built on first use.

        The audit, the explorers and the repair all read through this one
        source, so the dirty region it keeps is fetched once per report,
        by whichever of them first needs it, and dropped with the report.
        None of them changes a row of the region or hands one to a caller.
        """
        with self._sync_lock:
            self._sync_backend_if_stale(relation_name)
            if detected.tuples is None:
                detected.tuples = BackendTupleSource(
                    self.backend, relation_name, telemetry=self.telemetry
                )
            return detected.tuples

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
        """The most recent detection report for ``relation_name``, if it is current.

        The cached report is reused only while nothing has changed the
        relation or its CFDs since it was computed: no update through the
        facade or the monitor it built, no applied repair, no
        re-registration, no :meth:`mark_backend_stale` and no CFD added,
        replaced or removed.  Otherwise, or when none is cached, the
        relation is detected afresh.  The candidate repair of
        :meth:`repair` is current exactly as long as this report is.
        """
        return self._current(relation_name).report

    # -- step 4: audit ----------------------------------------------------------------------------

    def audit(self, relation_name: str) -> DataQualityReport:
        """Summarise the quality of ``relation_name`` from the latest detection.

        The audit reads the current report (see :meth:`last_report`).
        With SQL detection on it runs backend-resident: the dirty rows are
        the report's dirty region, fetched once per report and shared with
        the explorers and the repair; the clean-tuple categories come from
        pushed-down applicability aggregates, and the quality map's tid
        universe from the catalog row count — the working store is never
        read row-by-row.  With it off the auditor walks the working
        relation (the oracle).
        """
        detected = self._current(relation_name)
        if self.config.use_sql_detection:
            self.telemetry.inc("audit.source_resident")
            return self.auditor.audit_source(
                self._tuple_source(relation_name, detected),
                detected.cfds,
                detected.report,
            )
        return self.auditor.audit(
            self.database.relation(relation_name), detected.cfds, detected.report
        )

    # -- step 5: explore --------------------------------------------------------------------------

    def explorer(self, relation_name: str) -> DataExplorer:
        """A drill-down explorer over the current detection report.

        With SQL detection on every navigation step is answered by
        pushed-down aggregates and keyset-paged fetches; only the dirty rows
        and the visible page of tuples are ever materialised.  The dirty
        rows are the report's dirty region, read on the first step that
        needs them and shared with :meth:`audit` and :meth:`repair`; the
        rows the explorer hands out are fetched for the caller.
        """
        return DataExplorer(*self._exploration(relation_name))

    def exploration_session(self, relation_name: str) -> ExplorationSession:
        """A stateful exploration session (the Fig. 2 walk-through).

        It reads what :meth:`explorer` reads.
        """
        return ExplorationSession(*self._exploration(relation_name))

    def _exploration(
        self, relation_name: str
    ) -> Tuple[Union[Relation, BackendTupleSource], Sequence[CFD], ViolationReport]:
        """What an explorer of ``relation_name`` reads: data, CFDs and report."""
        detected = self._current(relation_name)
        if self.config.use_sql_detection:
            data: Union[Relation, BackendTupleSource] = self._tuple_source(
                relation_name, detected
            )
        else:
            data = self.database.relation(relation_name)
        return data, detected.cfds, detected.report

    # -- step 6: repair and review -----------------------------------------------------------------

    def repair(self, relation_name: str, cost_model: Optional[CostModel] = None) -> Repair:
        """Compute the candidate repair of ``relation_name``.

        The repair is planned from the current report (see
        :meth:`last_report`), detected first if none is cached, and stays
        the candidate :meth:`review` and :meth:`apply_repair` use for as
        long as that report is current: a change to the relation or its
        CFDs makes it stale.  With SQL detection on it is planned over a
        backend-resident data source: it starts from the report and that
        report's dirty region, which :meth:`audit` and the explorers
        share, so it runs no detection of its own; group members come
        from the sargable covering-members plans and value frequencies
        from ``GROUP BY`` aggregates — only result-sized rows cross the
        backend boundary and the working relation is never walked.  The
        repair's ``original`` and ``repaired`` relations hand out copies
        of their rows, never the region's.  With it off the repairer walks
        the working relation (the parity oracle).
        """
        repairer = BatchRepairer(
            cost_model=cost_model or self.cost_model,
            max_iterations=self.config.repair_max_iterations,
            telemetry=self.telemetry,
        )
        detected = self._current(relation_name)
        if self.config.use_sql_detection:
            source = BackendRepairSource(
                self._tuple_source(relation_name, detected), detected.report
            )
            repair = repairer.repair_with_source(source, detected.cfds)
            self.telemetry.inc("repair.source_resident")
            self.telemetry.inc(
                "repair.fetch_fraction", int(round(100 * source.fetch_fraction()))
            )
        else:
            repair = repairer.repair(
                self.database.relation(relation_name), detected.cfds
            )
        self.telemetry.inc("repair.cells_changed", len(repair.changes))
        detected.repair = repair
        return repair

    @staticmethod
    def _replayed(relation: Relation, repair: Repair) -> Relation:
        """A copy of ``relation`` with ``repair``'s change list applied.

        The change list is the whole repair on every path, so a current
        repair replayed over the working relation gives its repaired
        relation.  The copy shares every row the repair leaves unchanged.
        """
        replayed = relation.copy()
        for change in repair.changes:
            replayed.update(change.tid, {change.attribute: change.new_value})
        return replayed

    def review(self, relation_name: str) -> RepairReview:
        """An interactive review of the current candidate repair.

        When there is none, or it is stale, a new one is planned.  The
        review compares the working relation with the candidate's change
        list replayed over a copy of it, whichever source planned the
        repair.
        """
        repair = self._candidate(relation_name)
        if repair is None:
            repair = self.repair(relation_name)
        original = self.database.relation(relation_name)
        return RepairReview(
            dataclasses.replace(
                repair, original=original, repaired=self._replayed(original, repair)
            ),
            self.constraints.cfds(relation_name),
        )

    def apply_repair(self, relation_name: str, reviewed: Optional[Relation] = None) -> Relation:
        """Apply the current candidate repair (or a reviewed relation).

        Without ``reviewed`` the candidate's change list is replayed over a
        copy of the working relation, which replaces it, and the same
        cells travel to the backend as one
        :class:`~repro.backends.delta.DeltaBatch`.  A candidate is applied
        only while it is current (see :meth:`repair`); without one this
        raises :class:`~repro.errors.ConfigurationError`, on both paths.
        A ``reviewed`` relation replaces the working one as it is, and the
        cells that differ from it ship as one batch.  A full re-sync
        happens instead when the tuple-id sets differ or the backend copy
        lags.  The cached report is dropped, with its dirty region and
        candidate, before anything is copied or shipped.  With SQL
        detection on, a pushed-down ``detect_for_tuples`` over the
        repaired tids is the safety net for the resident planner, which
        never saw the whole relation (violations it still finds count as
        ``repair.post_check_violations``).  A monitor of the relation
        switches to "cleansed" mode, as does any monitor started later.
        """
        with self._sync_lock:
            repair = self._candidate(relation_name)
            if repair is None and reviewed is None:
                raise ConfigurationError(
                    f"no current candidate repair for {relation_name!r}: none "
                    "was planned, or the relation or its CFDs changed since; "
                    "call repair()"
                )
            self._applied[relation_name] = repair
            self._drop_report(relation_name)
        if reviewed is None:
            replacement = self._replayed(self.database.relation(relation_name), repair)
            batch: Optional[DeltaBatch] = DeltaBatch(relation=relation_name)
            for change in repair.changes:
                batch.record_update(change.tid, {change.attribute: change.new_value})
        else:
            replacement = reviewed.copy()
            batch = self._cell_diff(relation_name, replacement)
        self.database.add_relation(replacement, replace=True)
        if batch is None or self._backend_lags(relation_name):
            self._sync_backend(relation_name)
        elif not batch.is_empty():
            self.backend.apply_delta_batch(relation_name, batch)
            self.telemetry.inc("sync.delta_batches")
        if self.config.use_sql_detection and reviewed is None and repair.changes:
            post = self.detector.detect_for_tuples(
                relation_name,
                self.constraints.cfds(relation_name),
                sorted(repair.changed_tids()),
            )
            self.telemetry.inc(
                "repair.post_check_violations", post.total_violations()
            )
        self._restart_monitor(relation_name)
        return replacement

    def _cell_diff(self, relation_name: str, reviewed: Relation) -> Optional[DeltaBatch]:
        """The cells of ``reviewed`` that differ from the working relation, as one batch.

        None when there is no working relation or its tuple ids differ
        from ``reviewed``'s: only a full re-sync brings the backend copy
        there.  A copy shares the rows it did not change
        (:meth:`Relation.copy`), so a shared row is skipped without
        comparing its cells.
        """
        if not self.database.has_relation(relation_name):
            return None
        old_rows = dict(self.database.relation(relation_name).stored_rows())
        new_rows = dict(reviewed.stored_rows())
        if old_rows.keys() != new_rows.keys():
            return None
        attributes = reviewed.attribute_names
        batch = DeltaBatch(relation=relation_name)
        for tid, old_row in old_rows.items():
            new_row = new_rows[tid]
            if new_row is old_row:
                continue
            changes = {
                attr: new_row.get(attr)
                for attr in attributes
                if old_row.get(attr) != new_row.get(attr)
            }
            if changes:
                batch.record_update(tid, changes)
        return batch

    # -- step 7: monitor -----------------------------------------------------------------------------

    def monitor(self, relation_name: str, cleansed: Optional[bool] = None) -> DataMonitor:
        """The data monitor of ``relation_name`` (created on first use).

        A new monitor starts in repair ("cleansed") mode when a repair was
        applied to the relation since it was registered, and in detect
        mode otherwise; ``cleansed`` overrides that.  A candidate that was
        never applied leaves it in detect mode.
        When the relation's CFDs changed since the monitor last checked
        them (one added, replaced or removed), the monitor switches to the
        current set in place (:meth:`DataMonitor.use_cfds`): its report
        and its incremental repairs follow the new set, and a reference
        to it held by user code keeps working on the same relation.
        """
        monitor = self._monitors.get(relation_name)
        if monitor is None:
            monitor = self._monitors[relation_name] = self._make_monitor(
                relation_name,
                cleansed=bool(cleansed) if cleansed is not None else relation_name in self._applied,
            )
            return monitor
        cfds = self.constraints.cfds(relation_name)
        if not _same_cfds(monitor.cfds, cfds):
            monitor.use_cfds(cfds)
        if cleansed is not None:
            if cleansed:
                monitor.mark_cleansed()
            else:
                monitor.mark_dirty()
        return monitor

    def apply_updates(self, relation_name: str, updates: Iterable[Update]) -> List[Optional[int]]:
        """Apply a batch of updates to a monitored relation.

        The whole batch flows through the relation's data monitor and on to
        the storage backend as one coalesced
        :class:`~repro.backends.delta.DeltaBatch` (a single transaction on
        SQLite).  Returns the affected tid per update (new tids for
        inserts).  The monitor is created on first use, so this is also the
        one-call way to start monitoring a relation.  The cached detection
        report describes the data before the batch, so it is dropped with
        its dirty region: :meth:`last_report`, :meth:`audit`, the explorers
        and :meth:`repair` detect afresh.
        """
        monitor = self.monitor(relation_name)
        self._drop_report(relation_name)
        return monitor.apply_batch(updates)

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
        the backend raises :class:`~repro.errors.BackendError`.
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
