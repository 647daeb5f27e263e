"""The data monitor: keep detection results and repairs current under updates.

Per the paper, the data monitor "responds to updates on the data by
(1) invoking an incremental detection module … if the database has not been
cleansed; or (2) invoking an incremental repair module … otherwise".  The
:class:`DataMonitor` below implements exactly that dispatch: it owns an
:class:`~repro.detection.incremental.IncrementalDetector`, applies updates
through it, logs them, and — once the relation has been marked as cleansed —
routes update batches through the incremental repairer so the data stays
consistent without re-running the full pipeline.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..backends.base import StorageBackend
from ..core.cfd import CFD
from ..detection.incremental import IncrementalDetector
from ..detection.violations import ViolationReport
from ..engine.database import Database
from ..errors import MonitorError
from ..obs.telemetry import Telemetry
from ..repair.cost import CostModel
from ..repair.incremental import IncrementalRepairer
from ..repair.repairer import Repair
from .updates import Update, UpdateKind, UpdateLog


class DataMonitor:
    """Monitors one relation against a fixed set of CFDs.

    Its :class:`~repro.detection.incremental.IncrementalDetector` keeps the
    violation state in Python group dictionaries over the working store
    and ships each applied batch to the attached backend, so the report
    stays current without re-detection and the backend copy without bulk
    re-syncs.
    """

    def __init__(
        self,
        database: Database,
        relation_name: str,
        cfds: Sequence[CFD],
        cost_model: Optional[CostModel] = None,
        cleansed: bool = False,
        backend: Optional[StorageBackend] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.database = database
        self.relation_name = relation_name
        self.cfds = list(cfds)
        self.cost_model = cost_model or CostModel.uniform()
        #: whether the relation is considered cleansed (repair mode) or not
        #: (detection mode)
        self.cleansed = cleansed
        #: storage backend each applied update batch (and each
        #: incremental-repair changeset) is shipped to as one
        #: :class:`~repro.backends.delta.DeltaBatch`; None when the monitor
        #: keeps no backend copy
        self.backend = backend
        self.log = UpdateLog()
        self._detector = IncrementalDetector(
            database,
            relation_name,
            self.cfds,
            mirror=backend,
            telemetry=telemetry,
        )
        self._repairer = IncrementalRepairer(
            cost_model=self.cost_model, telemetry=telemetry
        )
        self._repairs: List[Repair] = []

    # -- mode ------------------------------------------------------------------------

    @property
    def mode(self) -> str:
        """The incremental evaluation mode: always ``"native"``.

        The detector keeps its group state in Python; the property stays
        read-only for callers that record it, such as the PIPELINE
        benchmark's run fingerprint.
        """
        return "native"

    def mark_cleansed(self) -> None:
        """Switch to repair mode: future updates are incrementally repaired."""
        self.cleansed = True

    def mark_dirty(self) -> None:
        """Switch back to detection-only mode."""
        self.cleansed = False

    # -- backend mirroring ------------------------------------------------------------

    @property
    def backend_desynced(self) -> bool:
        """Whether a failed mirror delta left the backend copy lagging.

        When true the attached backend no longer matches the working store;
        the owner must bulk re-sync before trusting pushed-down queries
        (the Semandaq facade does this automatically before its next
        ``detect``).
        """
        return self._detector.mirror_desynced

    def mark_backend_resynced(self) -> None:
        """Clear the desync flag after the owner bulk re-synced the backend."""
        self._detector.mark_resynced()

    def detach_backend(self) -> None:
        """Stop mirroring updates to the attached backend.

        The owner calls this when retiring a monitor (e.g. after its
        relation was replaced, or when the system closes): a stale monitor
        still held by user code must not keep shipping deltas from the
        detached relation into the backend copy of the new one.  The
        monitor keeps working against its own working store.
        """
        self.backend = None
        self._detector.detach_mirror()

    # -- applying updates ----------------------------------------------------------------

    def apply(self, update: Update) -> Optional[int]:
        """Apply one update; returns the affected tid (new tid for inserts)."""
        if update.kind is UpdateKind.INSERT:
            tid = self._detector.insert(update.row or {})
        elif update.kind is UpdateKind.DELETE:
            if update.tid is None:
                raise MonitorError("DELETE update without a tid")
            self._detector.delete(update.tid)
            tid = update.tid
        else:
            if update.tid is None or update.changes is None:
                raise MonitorError("MODIFY update without tid/changes")
            self._detector.update(update.tid, update.changes)
            tid = update.tid
        self.log.append(update, tid)
        return tid

    def apply_batch(self, updates: Iterable[Update]) -> List[Optional[int]]:
        """Apply a batch of updates; in repair mode, incrementally repair afterwards.

        The whole batch flows to the attached backend as one coalesced
        :class:`~repro.backends.delta.DeltaBatch` — a single transaction on
        SQLite — instead of one statement-plus-commit per update.
        """
        with self._detector.batch():
            tids = [self.apply(update) for update in updates]
        if self.cleansed:
            affected = [tid for tid in tids if tid is not None]
            self.repair_affected(affected)
        return tids

    # -- detection ---------------------------------------------------------------------------

    def current_report(self) -> ViolationReport:
        """The violation report reflecting every update applied so far."""
        return self._detector.report()

    def violations_involving(self, tid: int):
        """Violations that currently involve tuple ``tid``."""
        return self._detector.affected_violations(tid)

    def detection_cost(self) -> int:
        """Tuple examinations performed by incremental detection so far."""
        return self._detector.tuples_examined

    # -- repair ------------------------------------------------------------------------------

    def repair_affected(self, tids: Sequence[int]) -> Optional[Repair]:
        """Incrementally repair violations involving ``tids`` (repair mode only)."""
        live = [tid for tid in tids if tid in self._detector.relation]
        if not live:
            return None
        repair = self._repairer.repair_updates(
            self._detector.relation, self.cfds, live
        )
        # Safety net: incremental repair must never rewrite previously
        # cleansed data (every tid outside the update batch is protected).
        # The offending tids are exactly the changes outside the batch, so
        # the check is O(#changes) — no scan of the relation's tid set.
        updated = set(live)
        offending = [
            change.tid for change in repair.changes if change.tid not in updated
        ]
        if offending:
            self._repairer.verify_untouched(repair, offending)
        # apply the repair's changes to the monitored relation and to the
        # incremental detection state (the whole changeset also reaches the
        # attached backend as one DeltaBatch through the detector's mirror)
        with self._detector.batch():
            for change in repair.changes:
                if change.tid in self._detector.relation:
                    self._detector.update(
                        change.tid, {change.attribute: change.new_value}
                    )
        self._repairs.append(repair)
        return repair

    def repairs(self) -> List[Repair]:
        """All incremental repairs performed by this monitor."""
        return list(self._repairs)

    # -- summaries ----------------------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Headline numbers about the monitoring session."""
        report = self.current_report()
        return {
            "relation": self.relation_name,
            "mode": "repair" if self.cleansed else "detect",
            "updates_applied": len(self.log),
            "current_violations": report.total_violations(),
            "dirty_tuples": len(report.dirty_tids()),
            "incremental_repairs": len(self._repairs),
            "tuples_examined": self.detection_cost(),
            "batches_shipped": self._detector.batches_shipped,
        }
