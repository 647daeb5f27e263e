"""Incremental detection of CFD violations under data updates.

The paper's data monitor "responds to updates on the data by invoking an
incremental detection module … using the incremental SQL-based detection
techniques".  The key idea of those techniques is locality: an insertion,
deletion or value modification can only create or remove violations that
involve the modified tuple, i.e. violations whose LHS group contains the
tuple's (old or new) LHS values.

The :class:`IncrementalDetector` keeps its violations in one
:class:`~repro.core.satisfaction.ViolationState` over its detection units
(one CFD restricted to one RHS attribute), the state the repair planner
and the repair review keep too.  Each update is one state call: an insert
files the new tuple, a delete unfiles it, and a modification re-files the
tuple under the CFDs that mention a changed attribute, so an update
touches only its tuple's groups.  A report reads each unit's violations
off the state, re-deciding only the groups updates touched since the last
read.  The same locality, pushed down as SQL, is the restricted
``Q_C``/``Q_V`` plans that
:meth:`~repro.detection.detector.ErrorDetector.detect_for_tuples` runs
against the storage backend.

Updates flow through a first-class :class:`~repro.backends.delta.DeltaBatch`:
single operations ship as singleton batches, and the :meth:`batch` context
manager groups a whole update batch into one coalesced changeset applied to
the mirror backend in a single transaction.

The detector also counts how many (tuple, pattern row) pairs its state
filed or unfiled (``tuples_examined``) and how many batches it shipped to
the mirror (``batches_shipped``); the DET-INCR and DELTA-BATCH benchmarks
read these to show the incremental-vs-batch trade-offs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Mapping, Optional, Sequence

from ..backends.base import StorageBackend
from ..backends.delta import DeltaBatch
from ..core.cfd import CFD
from ..core.satisfaction import ViolationState
from ..engine.database import Database
from ..engine.relation import Relation
from ..errors import DetectionError
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .detector import _sub_cfd, _typed_cfds, _Unit
from .violations import Violation, ViolationReport


class IncrementalDetector:
    """Keeps a relation's CFD violations current across inserts, deletes and updates.

    The violations live in one :class:`~repro.core.satisfaction.ViolationState`
    over the detector's units, built over the relation by :meth:`use_cfds`
    and kept current by :meth:`insert`, :meth:`delete` and :meth:`update`.
    A :meth:`report` re-decides the groups updates touched, so reports,
    like updates, come from one thread at a time.
    """

    def __init__(
        self,
        database: Database,
        relation_name: str,
        cfds: Sequence[CFD],
        mirror: Optional[StorageBackend] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.database = database
        self.relation_name = relation_name
        self.relation: Relation = database.relation(relation_name)
        #: storage backend every applied update batch is shipped to as one
        #: :class:`DeltaBatch`, so a backend-resident copy stays current
        #: without full re-syncs.  None for a detector that keeps no
        #: backend copy.
        self.mirror = mirror
        #: set when a mirror delta failed after the working store mutated:
        #: the backend copy has silently diverged and needs a full re-sync
        #: (the Semandaq facade checks this flag before each detect)
        self.mirror_desynced = False
        #: number of DeltaBatch round trips shipped to the mirror
        self.batches_shipped = 0
        #: number of inserts, deletes and updates applied to the relation;
        #: an owner that caches results derived from the relation compares
        #: it to tell whether they still hold
        self.changes_applied = 0
        #: open explicit batch (None outside a ``batch()`` block)
        self._pending: Optional[DeltaBatch] = None
        #: the CFDs with their constants typed by the relation's schema
        self.cfds: List[CFD] = []
        #: one per CFD and RHS attribute, in the order reports list them
        self._units: List[_Unit] = []
        #: the units' violations (the state's CFDs are the units' subs)
        self._violations: Optional[ViolationState] = None
        self.use_cfds(cfds)

    @property
    def tuples_examined(self) -> int:
        """(tuple, pattern row) pairs the violation state filed or unfiled so far.

        Building the state counts every stored row under every pattern
        row; an update counts only the CFDs it re-files the tuple under.
        """
        return self._violations.examined

    def use_cfds(self, cfds: Sequence[CFD]) -> None:
        """Check ``cfds`` from now on: rebuild the violation state over the relation.

        The relation, the mirror and the counters stay, so updates keep
        shipping to the same backend, and ``changes_applied`` and
        ``tuples_examined`` keep growing.
        """
        self.cfds = _typed_cfds(self.relation_name, cfds, self.relation.schema)
        self._units = [
            _Unit(parent=cfd, sub=_sub_cfd(cfd, rhs_attribute))
            for cfd in self.cfds
            for rhs_attribute in cfd.rhs
        ]
        examined = self.tuples_examined if self._violations is not None else 0
        self._violations = ViolationState(
            [unit.sub for unit in self._units], self.relation
        )
        self._violations.examined += examined

    # -- update API --------------------------------------------------------------------

    def insert(self, row: Mapping[str, Any]) -> int:
        """Insert ``row`` into the relation and file it."""
        tid = self.relation.insert(dict(row))
        self.changes_applied += 1
        stored = self.relation.get(tid)
        self._violations.file([(tid, stored)])
        # Record the coerced row under the same tid, keeping tuple ids
        # aligned between the working store and the backend copy.  The
        # delta ships last so a backend failure leaves relation and
        # detection state consistent with each other.
        self._record(lambda batch: batch.record_insert(tid, dict(stored)))
        return tid

    def delete(self, tid: int) -> None:
        """Delete tuple ``tid`` and unfile it."""
        old_row = self.relation.delete(tid)
        self.changes_applied += 1
        self._violations.unfile(tid, old_row)
        self._record(lambda batch: batch.record_delete(tid))

    def update(self, tid: int, changes: Mapping[str, Any]) -> None:
        """Modify attribute values of tuple ``tid`` and re-file it."""
        old_row = self.relation.update(tid, dict(changes))
        self.changes_applied += 1
        new_row = self.relation.get(tid)
        self._violations.refile(tid, old_row, new_row, changes.keys())
        # ship the coerced values actually stored, not the raw inputs
        stored_changes = {attr: new_row.get(attr) for attr in changes}
        self._record(lambda batch: batch.record_update(tid, stored_changes))

    def _record(self, record_op: Callable[[DeltaBatch], None]) -> None:
        """Fold one applied operation into the pending (or a singleton) batch."""
        if self._pending is not None:
            record_op(self._pending)
            return
        batch = DeltaBatch(relation=self.relation_name)
        record_op(batch)
        self._flush(batch)

    @contextmanager
    def batch(self) -> Iterator[DeltaBatch]:
        """Group every update applied inside the block into one DeltaBatch.

        The coalesced batch ships to the mirror in a single
        ``apply_delta_batch`` round trip (one transaction on SQLite) when
        the block closes.  If the block raises after some updates were
        applied, the operations recorded so far still ship — the working
        store has already mutated, and the mirror must not silently lag it.
        """
        if self._pending is not None:
            raise DetectionError("an update batch is already open")
        self._pending = DeltaBatch(relation=self.relation_name)
        try:
            yield self._pending
        finally:
            pending, self._pending = self._pending, None
            self._flush(pending)

    def _flush(self, batch: DeltaBatch) -> None:
        """Ship one batch to the mirror.

        The working store and the detection state have already mutated by
        the time a batch ships, so a backend error (disk full, lock
        contention) means the backend copy now lags.  ``mirror_desynced``
        records that so the owner can schedule a full re-sync instead of
        silently detecting against stale data.
        """
        if self.mirror is None or batch.is_empty():
            return
        try:
            self.mirror.apply_delta_batch(self.relation_name, batch)
        except Exception:
            self.mirror_desynced = True
            self.telemetry.inc("mirror.desynced")
            raise
        self.batches_shipped += 1
        self.telemetry.inc("delta.batches_shipped")
        self.telemetry.inc("delta.ops_recorded", batch.ops_recorded)
        self.telemetry.inc("delta.ops_shipped", batch.statement_count)

    # -- mirror lifecycle ---------------------------------------------------------------

    def mark_resynced(self) -> None:
        """Reset after the owner bulk re-synced the mirror.

        The violation state tracks the working store, so it needs no
        rebuild; only the desync flag is cleared.
        """
        self.mirror_desynced = False

    def detach_mirror(self) -> None:
        """Stop mirroring updates to the backend."""
        self.mirror = None
        self.mirror_desynced = False

    # -- report ------------------------------------------------------------------------

    def report(self) -> ViolationReport:
        """The current :class:`ViolationReport`, read off the violation state."""
        violations: List[Violation] = []
        for index, unit in enumerate(self._units):
            violations.extend(unit.violations(self._violations.scan(index), self.relation))
        return ViolationReport(
            relation=self.relation_name,
            violations=violations,
            tuple_count=len(self.relation),
            cfd_ids=tuple(cfd.identifier for cfd in self.cfds),
        )

    def affected_violations(self, tid: int) -> List[Violation]:
        """Violations that currently involve tuple ``tid``."""
        return self.report().violations_for(tid)

    def reset_cost_counter(self) -> None:
        """Reset the cost counters (used by benchmarks)."""
        self._violations.examined = 0
        self.batches_shipped = 0
