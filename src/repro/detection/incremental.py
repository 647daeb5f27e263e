"""Incremental detection of CFD violations under data updates.

The paper's data monitor "responds to updates on the data by invoking an
incremental detection module … using the incremental SQL-based detection
techniques".  The key idea of those techniques is locality: an insertion,
deletion or value modification can only create or remove violations that
involve the modified tuple, i.e. violations whose LHS group contains the
tuple's (old or new) LHS values.

The :class:`IncrementalDetector` supports two evaluation modes for the
affected-group re-checks:

* ``native`` (the default) — per-CFD group state is maintained in Python
  dictionaries; each update touches only the affected groups.  This is the
  original pure-Python path and the correctness oracle.
* ``sql_delta`` — the re-checks are compiled to *delta variants* of the
  paper's ``Q_C``/``Q_V`` detection queries and pushed down to the mirror
  backend holding a resident copy of the relation (a ``sql_delta``
  detector without a mirror raises
  :class:`~repro.errors.SqlBackendRequiredError`): the affected tuple ids
  and LHS-value groups travel as ``?`` parameters, so the DBMS re-evaluates
  exactly the affected sub-instance (the FDB-style restriction that buys
  the incremental win).  Nothing is written to the backend but the
  CFD-LHS indexes, created at construction.  The mode is *fully
  backend-resident*: the delta ``Q_C`` carries each violating tuple's LHS
  values, the one-pass delta ``Q_V`` returns the members of every
  violating group (the same statements the batch detector runs), and
  :meth:`IncrementalDetector.report` assembles the violation report from
  backend rows alone — zero reads against the in-memory working store.
  Multi-attribute group restrictions are row-value semi-joins, and
  large re-checks are chunked by the dialect's per-statement parameter
  budget; see :mod:`repro.detection.sqlgen`.

Updates flow through a first-class :class:`~repro.backends.delta.DeltaBatch`:
single operations ship as singleton batches, and the :meth:`batch` context
manager groups a whole update batch into one coalesced changeset applied to
the mirror backend in a single transaction.

The detector also counts how many tuple examinations each native operation
performed (``tuples_examined``) and how many delta queries the ``sql_delta``
mode issued (``delta_queries``); the DET-INCR and DELTA-BATCH benchmarks
read these to show the incremental-vs-batch trade-offs.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..backends.base import StorageBackend
from ..backends.delta import DeltaBatch
from ..core.cfd import CFD
from ..engine.database import Database
from ..engine.relation import Relation
from ..errors import DetectionError, SqlBackendRequiredError
from ..obs.instrument import InstrumentedBackend
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .detector import _sub_cfd, decode_backend_value
from .sqlgen import LHS_COLUMN_PREFIX, DetectionSqlGenerator, SqlQuery
from .violations import MULTI, SINGLE, Violation, ViolationReport

#: evaluation mode maintaining group state in Python (the original path)
NATIVE_MODE = "native"
#: evaluation mode pushing affected-group re-checks down as delta SQL
SQL_DELTA_MODE = "sql_delta"
#: every evaluation mode the detector accepts
INCREMENTAL_MODES = (NATIVE_MODE, SQL_DELTA_MODE)


@dataclass
class _WorkUnit:
    """Detection state for one (parent CFD, RHS attribute) pair."""

    parent: CFD
    cfd: CFD  # single-RHS restriction of the parent
    #: tid -> pattern index of the first constant-RHS pattern it violates
    singles: Dict[int, int] = field(default_factory=dict)
    #: sql_delta mode: tid -> its LHS values (decoded engine values), so
    #: report assembly never reads the working store
    single_lhs: Dict[int, Tuple[Any, ...]] = field(default_factory=dict)
    #: native mode: pattern index -> lhs values -> {tid: rhs value}
    groups: Dict[int, Dict[Tuple[Any, ...], Dict[int, Any]]] = field(
        default_factory=lambda: defaultdict(dict)
    )
    #: sql_delta mode: lhs values -> (pattern index, member tids)
    multi: Dict[Tuple[Any, ...], Tuple[int, Tuple[int, ...]]] = field(
        default_factory=dict
    )

    @property
    def rhs_attribute(self) -> str:
        return self.cfd.rhs[0]

    @property
    def wildcard_rhs(self) -> bool:
        """Whether any pattern has a wildcard RHS (i.e. ``Q_V`` can match).

        Constant-RHS-only units never produce multi-tuple violations, so
        the per-batch delta ``Q_V`` round trip is skipped for them.
        """
        return any(
            self.cfd.rhs_pattern(pattern).value(self.rhs_attribute).is_wildcard
            for pattern in self.cfd.patterns
        )


@dataclass
class _Touched:
    """One tuple a pending batch touched: its tid and before/after images."""

    tid: int
    old_row: Optional[Dict[str, Any]]
    new_row: Optional[Dict[str, Any]]


class IncrementalDetector:
    """Maintains CFD violation state across inserts, deletes and updates."""

    def __init__(
        self,
        database: Database,
        relation_name: str,
        cfds: Sequence[CFD],
        mirror: Optional[StorageBackend] = None,
        mode: str = NATIVE_MODE,
        telemetry: Optional[Telemetry] = None,
    ):
        if mode not in INCREMENTAL_MODES:
            raise DetectionError(
                f"unknown incremental mode {mode!r}; "
                f"expected one of {', '.join(INCREMENTAL_MODES)}"
            )
        if mode == SQL_DELTA_MODE and mirror is None:
            raise SqlBackendRequiredError(
                "sql_delta mode re-checks against the mirror backend's copy "
                "of the relation; pass mirror=<StorageBackend>"
            )
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.database = database
        self.relation_name = relation_name
        self.relation: Relation = database.relation(relation_name)
        #: schema snapshot used for value decode, so report assembly never
        #: has to touch the (possibly replaced) working-store relation
        self._schema = self.relation.schema
        for cfd in cfds:
            if cfd.relation != relation_name:
                raise DetectionError(
                    f"CFD {cfd.identifier} targets {cfd.relation!r}, not {relation_name!r}"
                )
        #: the CFDs with their constants typed by the relation's schema
        self.cfds: List[CFD] = [cfd.coerced_to(self._schema) for cfd in cfds]
        self.mode = mode
        #: storage backend every applied update batch is shipped to as one
        #: :class:`DeltaBatch`, so a backend-resident copy stays current
        #: without full re-syncs.  None for a native detector that keeps no
        #: backend copy.
        self.mirror = mirror
        #: set when a mirror delta failed after the working store mutated:
        #: the backend copy has silently diverged and needs a full re-sync
        #: (the Semandaq facade checks this flag before each detect)
        self.mirror_desynced = False
        #: number of (tuple, pattern) examinations performed by native state
        #: maintenance so far
        self.tuples_examined = 0
        #: number of delta re-check queries the sql_delta mode has issued
        self.delta_queries = 0
        #: number of DeltaBatch round trips shipped to the mirror
        self.batches_shipped = 0
        self._units: List[_WorkUnit] = [
            _WorkUnit(parent=cfd, cfd=_sub_cfd(cfd, rhs_attribute))
            for cfd in self.cfds
            for rhs_attribute in cfd.rhs
        ]
        #: sql_delta mode: row count of the backend-resident copy, kept
        #: current by the update API so report assembly needs no round trip
        #: (and keeps working after the owner closed the backend)
        self._resident_rows = 0
        #: open explicit batch (None outside a ``batch()`` block)
        self._pending: Optional[DeltaBatch] = None
        self._pending_touched: List[_Touched] = []
        #: set when a sql_delta detector fell back to native mode and its
        #: Python state has not been rebuilt yet (rebuilt lazily on first
        #: use, so retiring a monitor never pays a whole-relation scan)
        self._native_stale = False
        if self.mode == SQL_DELTA_MODE:
            # In sql_delta mode the re-check queries run against the
            # mirror; it must already hold a current copy of the relation.
            self._query_backend: Optional[StorageBackend] = mirror
            if self.telemetry.active and not isinstance(
                self._query_backend, InstrumentedBackend
            ):
                self._query_backend = InstrumentedBackend(
                    self._query_backend, self.telemetry
                )
            self._generator: Optional[DetectionSqlGenerator] = DetectionSqlGenerator(
                self.relation.schema,
                dialect=self._query_backend.dialect,
                telemetry=self.telemetry,
            )
            for unit in self._units:
                if unit.cfd.lhs:
                    self._query_backend.ensure_index(relation_name, unit.cfd.lhs)
            self._initialise_sql()
        else:
            self._query_backend = None
            self._generator = None
            self._initialise()

    # -- native state construction ---------------------------------------------------

    def _initialise(self) -> None:
        for tid, row in self.relation.rows():
            self._add_tuple(tid, row)

    def _rebuild_native(self) -> None:
        """Recompute the native Python state from the working store."""
        for unit in self._units:
            unit.singles.clear()
            unit.single_lhs.clear()
            unit.groups = defaultdict(dict)
            unit.multi.clear()
        self._initialise()

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

    # -- sql_delta state construction ---------------------------------------------------

    def _initialise_sql(self) -> None:
        """Build the initial violation state from the full ``Q_C``/``Q_V``.

        This is the one whole-relation evaluation the sql_delta mode ever
        runs; every later update re-checks only the affected sub-instance.
        The full ``Q_C`` is generated with the ``lhs_*`` carry columns so
        even the initial singles never need a working-store read.
        """
        self._resident_rows = self._query_backend.row_count(self.relation_name)
        for unit in self._units:
            unit.singles.clear()
            unit.single_lhs.clear()
            unit.multi.clear()
            for query in self._generator.plan_single_queries(unit.cfd):
                self._absorb_single_rows(
                    unit, self._execute_delta(query), query.pattern_index
                )
            self._absorb_multi_queries(
                unit, self._generator.plan_multi_queries(unit.cfd)
            )

    def _execute_delta(self, query: SqlQuery) -> List[Dict[str, Any]]:
        self.delta_queries += 1
        self.telemetry.inc("delta.queries")
        if not self.telemetry.active:
            return self._query_backend.execute(query.sql, query.parameters)
        with self.telemetry.tag_statements(query.kind):
            return self._query_backend.execute(query.sql, query.parameters)

    def _decode_value(self, attribute: str, value: Any) -> Any:
        """Decode one backend-stored value (shared with the batch detector)."""
        return decode_backend_value(self._schema, attribute, value)

    def _absorb_single_rows(
        self,
        unit: _WorkUnit,
        rows: List[Dict[str, Any]],
        pattern_index: int,
    ) -> None:
        """Fold one pattern's ``Q_C`` rows into ``unit.singles`` (lowest pattern wins).

        The rows carry the tuple's LHS values (``lhs_*`` columns), which
        are decoded and kept so :meth:`report` assembles single-tuple
        violations from backend rows alone.
        """
        for row in rows:
            tid = row["tid"]
            if tid not in unit.singles or pattern_index < unit.singles[tid]:
                unit.singles[tid] = pattern_index
                unit.single_lhs[tid] = tuple(
                    self._decode_value(attr, row.get(LHS_COLUMN_PREFIX + attr))
                    for attr in unit.cfd.lhs
                )

    def _absorb_multi_queries(
        self, unit: _WorkUnit, queries: Sequence[SqlQuery]
    ) -> None:
        """Execute the one-pass ``Q_V`` statements and fold them into ``unit.multi``.

        Each statement checks one pattern and returns the member rows of
        its violating groups, read from the backend copy (the working
        store is never consulted).  An LHS group covered by several
        overlapping patterns comes back once per matching pattern; it is
        kept once, under its lowest violating pattern index — the rule
        every detection path follows.  Keys stay in the *backend's* value
        representation until the final decode.
        """
        cfd = unit.cfd
        grouped: Dict[Tuple[Any, ...], int] = {}
        members: Dict[Tuple[Any, ...], Set[int]] = {}
        for query in queries:
            pattern_index = query.pattern_index
            for row in self._execute_delta(query):
                key = tuple(row[LHS_COLUMN_PREFIX + attr] for attr in cfd.lhs)
                if key not in grouped or pattern_index < grouped[key]:
                    grouped[key] = pattern_index
                members.setdefault(key, set()).add(row["tid"])
        for key, pattern_index in grouped.items():
            tids = members.get(key, set())
            if len(tids) < 2:
                continue
            decoded = tuple(
                self._decode_value(attr, value)
                for attr, value in zip(cfd.lhs, key)
            )
            unit.multi[decoded] = (pattern_index, tuple(sorted(tids)))

    # -- delta re-checks (sql_delta mode) ---------------------------------------------

    def _recheck_affected(self, touched: Sequence[_Touched]) -> None:
        """Re-evaluate the affected sub-instance against the backend copy.

        The re-check statements are budget-chunked by the generator: the
        dialect's per-statement parameter budget bounds how many affected
        tids/groups each statement binds, however wide the CFD's LHS is.
        """
        touched_tids = list(dict.fromkeys(entry.tid for entry in touched))
        for unit in self._units:
            for tid in touched_tids:
                unit.singles.pop(tid, None)
                unit.single_lhs.pop(tid, None)
            for plan in self._generator.plan_delta_single(unit.cfd, touched_tids):
                self._absorb_single_rows(
                    unit, self._execute_delta(plan), plan.pattern_index
                )
            if not unit.cfd.lhs or not unit.wildcard_rhs:
                continue
            keys = self._affected_keys(unit, touched)
            if not keys:
                continue
            for key in keys:
                unit.multi.pop(key, None)
            self._absorb_multi_queries(
                unit,
                self._generator.plan_delta_multi(unit.cfd, unit.rhs_attribute, keys),
            )

    def _affected_keys(
        self, unit: _WorkUnit, touched: Sequence[_Touched]
    ) -> List[Tuple[Any, ...]]:
        """LHS-value groups whose violation status an update batch may change.

        The old and the new image of every touched tuple each contribute
        their LHS values.  Keys containing NULL are skipped: a NULL LHS cell
        keeps a tuple out of every group on every detection path.
        """
        lhs = unit.cfd.lhs
        keys: Dict[Tuple[Any, ...], None] = {}
        for entry in touched:
            for row in (entry.old_row, entry.new_row):
                if row is None:
                    continue
                key = tuple(row.get(attr) for attr in lhs)
                if any(value is None for value in key):
                    continue
                keys[key] = None
        return list(keys)

    # -- update API --------------------------------------------------------------------

    def insert(self, row: Mapping[str, Any]) -> int:
        """Insert ``row`` into the relation and update detection state."""
        self._ensure_native_state()
        tid = self.relation.insert(dict(row))
        stored = self.relation.get(tid)
        if self.mode == NATIVE_MODE:
            self._add_tuple(tid, stored)
        else:
            self._resident_rows += 1
        # Record the coerced row under the same tid, keeping tuple ids
        # aligned between the working store and the backend copy.  The
        # delta ships last so a backend failure leaves relation and
        # detection state consistent with each other.
        self._record(
            _Touched(tid=tid, old_row=None, new_row=dict(stored)),
            lambda batch: batch.record_insert(tid, dict(stored)),
        )
        return tid

    def delete(self, tid: int) -> None:
        """Delete tuple ``tid`` and update detection state."""
        self._ensure_native_state()
        old_row = dict(self.relation.get(tid))
        self.relation.delete(tid)
        if self.mode == NATIVE_MODE:
            self._remove_tuple(tid, old_row)
        else:
            self._resident_rows -= 1
        self._record(
            _Touched(tid=tid, old_row=old_row, new_row=None),
            lambda batch: batch.record_delete(tid),
        )

    def update(self, tid: int, changes: Mapping[str, Any]) -> None:
        """Modify attribute values of tuple ``tid`` and update detection state."""
        self._ensure_native_state()
        old_row = dict(self.relation.get(tid))
        self.relation.update(tid, dict(changes))
        new_row = self.relation.get(tid)
        if self.mode == NATIVE_MODE:
            self._remove_tuple(tid, old_row)
            self._add_tuple(tid, new_row)
        # ship the coerced values actually stored, not the raw inputs
        stored_changes = {attr: new_row.get(attr) for attr in changes}
        self._record(
            _Touched(tid=tid, old_row=old_row, new_row=dict(new_row)),
            lambda batch: batch.record_update(tid, stored_changes),
        )

    def _record(self, touched: _Touched, record_op) -> None:
        """Fold one applied operation into the pending (or a singleton) batch."""
        if self._pending is not None:
            record_op(self._pending)
            self._pending_touched.append(touched)
            return
        batch = DeltaBatch(relation=self.relation_name)
        record_op(batch)
        self._flush(batch, [touched])

    @contextmanager
    def batch(self) -> Iterator[DeltaBatch]:
        """Group every update applied inside the block into one DeltaBatch.

        The coalesced batch ships to the mirror in a single
        ``apply_delta_batch`` round trip (one transaction on SQLite) when
        the block closes, and the sql_delta re-checks run once for the
        whole batch.  If the block raises after some updates were applied,
        the operations recorded so far still ship — the working store has
        already mutated, and the mirror must not silently lag it.
        """
        if self._pending is not None:
            raise DetectionError("an update batch is already open")
        self._pending = DeltaBatch(relation=self.relation_name)
        self._pending_touched = []
        try:
            yield self._pending
        finally:
            pending, touched = self._pending, self._pending_touched
            self._pending, self._pending_touched = None, []
            self._flush(pending, touched)

    def _flush(self, batch: DeltaBatch, touched: Sequence[_Touched]) -> None:
        """Ship one batch to the mirror, then re-check the affected groups.

        The working store and (in native mode) the detection state have
        already mutated by the time a batch ships, so a backend error (disk
        full, lock contention) means the backend copy now lags.
        ``mirror_desynced`` records that so the owner can schedule a full
        re-sync instead of silently detecting against stale data.
        """
        if not touched:
            return
        if self.mirror is not None and not batch.is_empty():
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
        if self.mode == SQL_DELTA_MODE:
            try:
                self._recheck_affected(touched)
            except Exception:
                # A partially-run re-check leaves the violation state torn
                # (affected entries popped but not re-absorbed).  The batch
                # itself already shipped, so a full rebuild from the backend
                # restores consistency; if even that fails, flag the desync
                # so the owner schedules a bulk re-sync + rebuild.
                try:
                    self._initialise_sql()
                except Exception:
                    self.mirror_desynced = True
                    self.telemetry.inc("mirror.desynced")
                raise

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

        In sql_delta mode the violation state was computed against the
        (now replaced) backend copy, so it is rebuilt from fresh full
        queries; the native state tracks the working store and needs no
        rebuild.
        """
        self.mirror_desynced = False
        if self.mode == SQL_DELTA_MODE:
            self._initialise_sql()

    def detach_mirror(self) -> None:
        """Stop mirroring updates (and, in sql_delta mode, querying) the backend.

        A detached sql_delta detector falls back to the native evaluation
        mode against its working store: the backend it compiled re-checks
        against is no longer its to query.
        """
        if self.mode == SQL_DELTA_MODE:
            self._fall_back_to_native()
        self.mirror = None
        self.mirror_desynced = False

    def _fall_back_to_native(self) -> None:
        """Stop querying the backend and switch to native evaluation.

        The Python state is rebuilt *lazily* (on the next update or
        report), so retiring a detector costs nothing — most fallen-back
        detectors are never used again.
        """
        self.mode = NATIVE_MODE
        self._query_backend = None
        self._generator = None
        self._native_stale = True

    def _ensure_native_state(self) -> None:
        """Rebuild the native state if a mode fallback left it stale."""
        if self.mode == NATIVE_MODE and self._native_stale:
            self._native_stale = False
            self._rebuild_native()

    def close(self) -> None:
        """Stop querying the backend and fall back to native evaluation.

        A closed sql_delta detector stays usable — updates keep shipping to
        the mirror and detection continues against the (lazily rebuilt)
        Python state; it just no longer queries the backend.  A no-op in
        native mode.
        """
        if self.mode == SQL_DELTA_MODE:
            self._fall_back_to_native()

    # -- report ------------------------------------------------------------------------

    def report(self) -> ViolationReport:
        """Build the current :class:`ViolationReport` from the maintained state.

        In ``sql_delta`` mode the report is assembled entirely from state
        computed off backend rows — the singles' LHS values were carried by
        the delta ``Q_C``, group members came from the one-pass ``Q_V``,
        and the tuple count is the backend's — so the in-memory working
        store is never read.
        """
        self._ensure_native_state()
        backend_resident = self.mode == SQL_DELTA_MODE
        violations: List[Violation] = []
        for unit in self._units:
            for tid, pattern_index in sorted(unit.singles.items()):
                if backend_resident:
                    lhs_values = unit.single_lhs.get(tid, ())
                else:
                    row = self.relation.get(tid)
                    lhs_values = tuple(row.get(attr) for attr in unit.cfd.lhs)
                violations.append(
                    Violation(
                        cfd_id=unit.parent.identifier,
                        kind=SINGLE,
                        tids=(tid,),
                        rhs_attribute=unit.rhs_attribute,
                        pattern_index=pattern_index,
                        lhs_attributes=unit.cfd.lhs,
                        lhs_values=lhs_values,
                    )
                )
            if backend_resident:
                violations.extend(self._multi_violations_sql(unit))
            else:
                violations.extend(self._multi_violations_native(unit))
        return ViolationReport(
            relation=self.relation_name,
            violations=violations,
            tuple_count=self._resident_rows if backend_resident else len(self.relation),
            cfd_ids=tuple(cfd.identifier for cfd in self.cfds),
        )

    def _multi_violations_native(self, unit: _WorkUnit) -> List[Violation]:
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

    def _multi_violations_sql(self, unit: _WorkUnit) -> List[Violation]:
        return [
            Violation(
                cfd_id=unit.parent.identifier,
                kind=MULTI,
                tids=tids,
                rhs_attribute=unit.rhs_attribute,
                pattern_index=pattern_index,
                lhs_attributes=unit.cfd.lhs,
                lhs_values=key,
            )
            for key, (pattern_index, tids) in unit.multi.items()
        ]

    def affected_violations(self, tid: int) -> List[Violation]:
        """Violations that currently involve tuple ``tid``."""
        return self.report().violations_for(tid)

    def reset_cost_counter(self) -> None:
        """Reset the cost counters (used by benchmarks)."""
        self.tuples_examined = 0
        self.delta_queries = 0
        self.batches_shipped = 0
