"""Incremental detection of CFD violations under data updates.

The paper's data monitor "responds to updates on the data by invoking an
incremental detection module … using the incremental SQL-based detection
techniques".  The key idea of those techniques is locality: an insertion,
deletion or value modification can only create or remove violations that
involve the modified tuple, i.e. violations whose LHS group contains the
tuple's (old or new) LHS values.

The :class:`IncrementalDetector` keeps per-CFD group state in Python
dictionaries, so each update touches only the affected groups.  The same
locality, pushed down as SQL, is the restricted ``Q_C``/``Q_V`` plans that
:meth:`~repro.detection.detector.ErrorDetector.detect_for_tuples` runs
against the storage backend.

Updates flow through a first-class :class:`~repro.backends.delta.DeltaBatch`:
single operations ship as singleton batches, and the :meth:`batch` context
manager groups a whole update batch into one coalesced changeset applied to
the mirror backend in a single transaction.

The detector also counts how many tuple examinations its state maintenance
performed (``tuples_examined``) and how many batches it shipped to the
mirror (``batches_shipped``); the DET-INCR and DELTA-BATCH benchmarks read
these to show the incremental-vs-batch trade-offs.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..backends.base import StorageBackend
from ..backends.delta import DeltaBatch
from ..core.cfd import CFD
from ..engine.database import Database
from ..engine.relation import Relation
from ..errors import DetectionError
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .detector import _sub_cfd
from .violations import MULTI, SINGLE, Violation, ViolationReport


@dataclass
class _WorkUnit:
    """Detection state for one (parent CFD, RHS attribute) pair."""

    parent: CFD
    cfd: CFD  # single-RHS restriction of the parent
    #: tid -> pattern index of the first constant-RHS pattern it violates
    singles: Dict[int, int] = field(default_factory=dict)
    #: pattern index -> lhs values -> {tid: rhs value}
    groups: Dict[int, Dict[Tuple[Any, ...], Dict[int, Any]]] = field(
        default_factory=lambda: defaultdict(dict)
    )

    @property
    def rhs_attribute(self) -> str:
        return self.cfd.rhs[0]


class IncrementalDetector:
    """Maintains CFD violation state across inserts, deletes and updates."""

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
        for cfd in cfds:
            if cfd.relation != relation_name:
                raise DetectionError(
                    f"CFD {cfd.identifier} targets {cfd.relation!r}, not {relation_name!r}"
                )
        #: the CFDs with their constants typed by the relation's schema
        self.cfds: List[CFD] = [cfd.coerced_to(self.relation.schema) for cfd in cfds]
        #: storage backend every applied update batch is shipped to as one
        #: :class:`DeltaBatch`, so a backend-resident copy stays current
        #: without full re-syncs.  None for a detector that keeps no
        #: backend copy.
        self.mirror = mirror
        #: set when a mirror delta failed after the working store mutated:
        #: the backend copy has silently diverged and needs a full re-sync
        #: (the Semandaq facade checks this flag before each detect)
        self.mirror_desynced = False
        #: number of (tuple, pattern) examinations performed by state
        #: maintenance so far
        self.tuples_examined = 0
        #: number of DeltaBatch round trips shipped to the mirror
        self.batches_shipped = 0
        self._units: List[_WorkUnit] = [
            _WorkUnit(parent=cfd, cfd=_sub_cfd(cfd, rhs_attribute))
            for cfd in self.cfds
            for rhs_attribute in cfd.rhs
        ]
        #: open explicit batch (None outside a ``batch()`` block)
        self._pending: Optional[DeltaBatch] = None
        for tid, row in self.relation.rows():
            self._add_tuple(tid, row)

    # -- state maintenance -------------------------------------------------------------

    def _add_tuple(self, tid: int, row: Mapping[str, Any]) -> None:
        for unit in self._units:
            self._add_to_unit(unit, tid, row)

    def _remove_tuple(self, tid: int, row: Mapping[str, Any]) -> None:
        for unit in self._units:
            self._remove_from_unit(unit, tid, row)

    def _add_to_unit(self, unit: _WorkUnit, tid: int, row: Mapping[str, Any]) -> None:
        cfd = unit.cfd
        rhs_attribute = unit.rhs_attribute
        for pattern_index, pattern in enumerate(cfd.patterns):
            self.tuples_examined += 1
            if not cfd.applies_to(row, pattern):
                continue
            rhs_value = pattern.value(rhs_attribute)
            if rhs_value.is_constant:
                if not rhs_value.matches(row.get(rhs_attribute)):
                    unit.singles.setdefault(tid, pattern_index)
            else:
                if row.get(rhs_attribute) is None or not cfd.lhs:
                    continue
                key = tuple(row.get(attr) for attr in cfd.lhs)
                unit.groups[pattern_index].setdefault(key, {})[tid] = row.get(
                    rhs_attribute
                )

    def _remove_from_unit(self, unit: _WorkUnit, tid: int, row: Mapping[str, Any]) -> None:
        unit.singles.pop(tid, None)
        cfd = unit.cfd
        for pattern_index, pattern in enumerate(cfd.patterns):
            self.tuples_examined += 1
            if not cfd.lhs:
                continue
            key = tuple(row.get(attr) for attr in cfd.lhs)
            members = unit.groups.get(pattern_index, {}).get(key)
            if members is not None:
                members.pop(tid, None)
                if not members:
                    unit.groups[pattern_index].pop(key, None)

    # -- update API --------------------------------------------------------------------

    def insert(self, row: Mapping[str, Any]) -> int:
        """Insert ``row`` into the relation and update detection state."""
        tid = self.relation.insert(dict(row))
        stored = self.relation.get(tid)
        self._add_tuple(tid, stored)
        # Record the coerced row under the same tid, keeping tuple ids
        # aligned between the working store and the backend copy.  The
        # delta ships last so a backend failure leaves relation and
        # detection state consistent with each other.
        self._record(lambda batch: batch.record_insert(tid, dict(stored)))
        return tid

    def delete(self, tid: int) -> None:
        """Delete tuple ``tid`` and update detection state."""
        old_row = dict(self.relation.get(tid))
        self.relation.delete(tid)
        self._remove_tuple(tid, old_row)
        self._record(lambda batch: batch.record_delete(tid))

    def update(self, tid: int, changes: Mapping[str, Any]) -> None:
        """Modify attribute values of tuple ``tid`` and update detection state."""
        old_row = dict(self.relation.get(tid))
        self.relation.update(tid, dict(changes))
        new_row = self.relation.get(tid)
        self._remove_tuple(tid, old_row)
        self._add_tuple(tid, new_row)
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

    def apply(self, operation: str, **kwargs: Any) -> Optional[int]:
        """Dispatch an update described by name: ``insert``, ``delete`` or ``update``."""
        if operation == "insert":
            return self.insert(kwargs["row"])
        if operation == "delete":
            self.delete(kwargs["tid"])
            return None
        if operation == "update":
            self.update(kwargs["tid"], kwargs["changes"])
            return None
        raise DetectionError(f"unknown operation {operation!r}")

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
        """Build the current :class:`ViolationReport` from the maintained state."""
        violations: List[Violation] = []
        for unit in self._units:
            for tid, pattern_index in sorted(unit.singles.items()):
                row = self.relation.get(tid)
                violations.append(
                    Violation(
                        cfd_id=unit.parent.identifier,
                        kind=SINGLE,
                        tids=(tid,),
                        rhs_attribute=unit.rhs_attribute,
                        pattern_index=pattern_index,
                        lhs_attributes=unit.cfd.lhs,
                        lhs_values=tuple(row.get(attr) for attr in unit.cfd.lhs),
                    )
                )
            violations.extend(self._multi_violations(unit))
        return ViolationReport(
            relation=self.relation_name,
            violations=violations,
            tuple_count=len(self.relation),
            cfd_ids=tuple(cfd.identifier for cfd in self.cfds),
        )

    def _multi_violations(self, unit: _WorkUnit) -> List[Violation]:
        violations: List[Violation] = []
        seen_keys: Set[Tuple[Any, ...]] = set()
        for pattern_index in sorted(unit.groups):
            for key, members in unit.groups[pattern_index].items():
                if key in seen_keys:
                    continue
                if len(members) < 2:
                    continue
                distinct = {
                    value for value in members.values() if value is not None
                }
                if len(distinct) <= 1:
                    continue
                seen_keys.add(key)
                violations.append(
                    Violation(
                        cfd_id=unit.parent.identifier,
                        kind=MULTI,
                        tids=tuple(sorted(members)),
                        rhs_attribute=unit.rhs_attribute,
                        pattern_index=pattern_index,
                        lhs_attributes=unit.cfd.lhs,
                        lhs_values=key,
                    )
                )
        return violations

    def affected_violations(self, tid: int) -> List[Violation]:
        """Violations that currently involve tuple ``tid``."""
        return self.report().violations_for(tid)

    def reset_cost_counter(self) -> None:
        """Reset the cost counters (used by benchmarks)."""
        self.tuples_examined = 0
        self.batches_shipped = 0
