"""Repair data sources: where the repairer's relational work runs.

The data cleanser is split into two halves:

* the **planner** (:class:`~repro.repair.repairer.BatchRepairer` with the
  equivalence-class and cost machinery of :mod:`repro.repair.eqclass` /
  :mod:`repro.repair.cost`) — pure decision logic over a working
  :class:`~repro.engine.relation.Relation` it owns;
* a **data source** (this module) — the only component that talks to
  storage.  It decides *which tuples the planner gets to see* and answers
  the relational sub-problems (violation collection, group membership,
  value frequencies) either from an in-memory relation or from the
  storage backend's resident copy.

:class:`NativeRepairSource` is the parity oracle: the planner sees a full
copy of the relation and every answer comes from Python iteration — the
seed behaviour, bit-for-bit.

:class:`BackendRepairSource` keeps the relation in the backend and
materialises only a *partial* working relation:

* the initial tuple set is the dirty region of the detection report the
  source is given (:meth:`~repro.sources.base.TupleSource.dirty_region`:
  the violating tuples, one ``row_fetch`` pass), so a repair runs no
  detection of its own;
* ``_column_frequencies`` becomes one ``GROUP BY``/``COUNT`` aggregate
  per attribute (:meth:`DetectionSqlGenerator.value_freq_query`), ordered
  client-side by ``(freq DESC, MIN(_tid) ASC)`` so candidate ranking ties
  break exactly like the native ``Counter``'s first-encounter order;
* whenever the planner changes a cell, the affected LHS-group keys are
  queued, and at the start of the next round the source *closes* the
  partial relation over them: a chunked
  :meth:`~DetectionSqlGenerator.group_stats_query` aggregate answers how
  many members the backend holds per key (keys nobody stores — the
  common fresh-value case — and keys whose members are all fetched
  already are dismissed by count alone; the fetched side is the sum of
  the per-key value counts the source keeps for every fetched row), a
  :meth:`~DetectionSqlGenerator.majority_value_query` histogram dismisses
  the groups whose combined values are already unanimous, and only the
  remainder pay a sargable
  :meth:`~DetectionSqlGenerator.covering_members_query` enumeration plus
  a :meth:`~DetectionSqlGenerator.row_fetch_query` for the missing rows.

Those are the only rows the source reads: however much of the relation is
dirty, it fetches the region and the closure's members and never scans
the relation.

The closure maintains the invariant the oracle proof rests on: every
backend member of every LHS group that could *become* violating through a
planner change is present in the partial relation before violations are
re-collected.  Unfetched tuples never change, so their single-tuple
status is frozen (all initially-violating tuples are fetched up front)
and a group can only turn violating through a fetched-and-changed member
— whose new key was queued.  The partial relation is therefore
violation-equivalent to the full one at every round boundary, and the
planner's decisions (which iterate fetched tuples in sorted-tid order,
exactly like the native path iterates all tuples) come out identical.

:class:`ScopedRepairSource` applies the same closure to incremental
repair, where only an update batch's tuples may change and only
violations involving them count.  Its working relation starts as the
updated tuples; every round adds the members of each wildcard-RHS LHS
group an updated tuple belongs to whose combined values are not
unanimous, looked up in the monitored relation's maintained hash indexes.
Every violating group with an updated member is then complete, so the
planner decides exactly as over a full copy (``NativeRepairSource`` with
``restrict_to_tids``, the oracle) while reading only the batch's groups.
The key queueing and sub-CFD selection both partial sources share live in
:class:`PartialRepairSource`.

The planner keeps its violations between rounds
(:class:`~repro.core.satisfaction.ViolationState`) and files the rows a
source admitted before it reads the next round's violations.  A source
therefore only ever adds rows to the working relation, and only in
``begin_round``, which returns their tids: it never changes or drops one.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.cfd import CFD
from ..detection.sqlgen import DetectionSqlGenerator
from ..detection.violations import ViolationReport
from ..engine.relation import Relation
from ..sources.backend import BackendTupleSource
from ..sources.base import GroupKey
from ..sources.native import native_column_frequencies

__all__ = [
    "GroupKey",
    "RepairDataSource",
    "NativeRepairSource",
    "PartialRepairSource",
    "BackendRepairSource",
    "ScopedRepairSource",
    "native_column_frequencies",
]

class RepairDataSource:
    """What the repair planner needs from storage, as a narrow protocol."""

    #: what :attr:`~repro.repair.repairer.Repair.source` records for a
    #: repair planned over this source
    kind = "native"

    def attribute_names(self) -> List[str]:
        """Attribute names of the target relation (for CFD validation)."""
        raise NotImplementedError

    def load(self, cfds: Sequence[CFD]) -> Relation:
        """Build and return the working relation the planner mutates."""
        raise NotImplementedError

    def original(self) -> Relation:
        """The pristine relation recorded as :attr:`Repair.original`."""
        raise NotImplementedError

    def column_frequencies(self) -> Dict[str, Counter]:
        """Per-attribute frequency of non-NULL values in the original data."""
        raise NotImplementedError

    def begin_round(self, working: Relation) -> List[int]:
        """Hook before each violation-collection round (closure maintenance).

        It may add tuples to ``working``, never change or remove one, and
        returns the tids it added.
        """
        return []

    def note_change(self, working: Relation, tid: int, attribute: str) -> None:
        """Hook after the planner changed ``working[tid][attribute]``."""


class NativeRepairSource(RepairDataSource):
    """The parity oracle: a full in-memory copy, Python iteration throughout."""

    def __init__(self, relation: Relation):
        self.relation = relation

    def attribute_names(self) -> List[str]:
        return list(self.relation.attribute_names)

    def load(self, cfds: Sequence[CFD]) -> Relation:
        return self.relation.copy()

    def original(self) -> Relation:
        return self.relation

    def column_frequencies(self) -> Dict[str, Counter]:
        return native_column_frequencies(self.relation)


class PartialRepairSource(RepairDataSource):
    """A source whose working relation holds only part of the stored one.

    A planner change can move a tuple into an LHS group whose other members
    the working relation lacks.  :meth:`note_change` queues the group keys
    a change touched, and subclasses close the working relation over them
    in :meth:`begin_round`, before violations are re-collected.  Only the
    normalised sub-CFDs with a wildcard RHS have groups a change can grow.
    """

    def _start_closure(self, cfds: Sequence[CFD]) -> None:
        #: normalised sub-CFDs with a wildcard RHS
        self._subs: List[CFD] = _closure_subs(cfds)
        #: closure queue: sub-CFD index -> ordered set of LHS keys to re-check
        self._pending: Dict[int, Dict[GroupKey, None]] = {}

    def note_change(self, working: Relation, tid: int, attribute: str) -> None:
        self._queue_keys(working.get(tid), attribute)

    def _queue_keys(self, row: Dict[str, Any], attribute: Optional[str] = None) -> None:
        """Queue ``row``'s key under each sub-CFD a change of ``attribute`` moves.

        Without an ``attribute`` the key is queued under every sub-CFD.
        """
        for sub_index, sub in enumerate(self._subs):
            moved = attribute is None or attribute in sub.lhs or attribute == sub.rhs[0]
            if not moved:
                continue
            key = tuple(row.get(attr) for attr in sub.lhs)
            if not any(
                matcher.wildcard_rhs and matcher.applies_to_key(key)
                for matcher in sub.matchers
            ):
                continue  # a NULL-LHS key, or no wildcard-RHS pattern covers it
            self._pending.setdefault(sub_index, {})[key] = None

    def _take_pending(self) -> Dict[int, Dict[GroupKey, None]]:
        pending, self._pending = self._pending, {}
        return pending

    @staticmethod
    def _working_values(
        working: Relation, sub: CFD
    ) -> Dict[GroupKey, Set[Any]]:
        """Distinct non-NULL working RHS values per working LHS key."""
        rhs_attribute = sub.rhs[0]
        index: Dict[GroupKey, Set[Any]] = {}
        for _tid, row in working.stored_rows():
            value = row.get(rhs_attribute)
            if value is None:
                continue
            key = tuple(row.get(attr) for attr in sub.lhs)
            if any(part is None for part in key):
                continue
            index.setdefault(key, set()).add(value)
        return index


def _closure_subs(cfds: Sequence[CFD]) -> List[CFD]:
    """The distinct normalised sub-CFDs of ``cfds`` with a wildcard RHS."""
    subs: List[CFD] = []
    seen = set()
    for cfd in cfds:
        for sub in cfd.normalize():
            signature = (sub.lhs, sub.rhs, sub.patterns)
            if signature in seen:
                continue
            seen.add(signature)
            if sub.lhs and any(matcher.wildcard_rhs for matcher in sub.matchers):
                subs.append(sub)
    return subs


class BackendRepairSource(PartialRepairSource):
    """Backend-resident source: the planner sees only the tuples it needs.

    ``tuples`` is the read layer over the stored relation every
    pushed-down read goes through, and ``report`` the detection report
    the repair starts from; it must describe the relation as it is now.
    The working relation and its pristine twin start as copies of the
    report's dirty region (:meth:`BackendTupleSource.dirty_region`), and
    the closure adds the members of the groups a change queued.  A caller
    that shares ``tuples`` with other readers of the report fetches the
    region once for all of them (the facade shares one per cached report
    with the audit and the explorers).  Neither copy aliases a row the
    caller can change, because a :class:`~repro.engine.relation.Relation`
    never edits a stored row in place.
    """

    kind = "backend"

    def __init__(self, tuples: BackendTupleSource, report: ViolationReport):
        self.report = report
        self.telemetry = tuples.telemetry
        #: shared read layer: every pushed-down read goes through here
        self._source = tuples
        self._generator: Optional[DetectionSqlGenerator] = None
        self._original: Optional[Relation] = None
        self._total_rows = 0
        #: per closure sub-CFD: pristine non-NULL RHS values per LHS key
        #: among the fetched rows, counted at fetch time.  Their sum is the
        #: key's fetched member count, which the begin_round pre-filter
        #: compares with the backend's; subtracting them from a backend
        #: ``majority_value`` histogram leaves the unfetched remainder
        self._fetched_values: List[Dict[GroupKey, Dict[Any, int]]] = []
        self._start_closure(())
        #: SQL issued by this source (the detector keeps its own log);
        #: shared with the tuple source so both halves log to one place
        self.last_sql: List[str] = self._source.last_sql
        #: pushdown counters (tests and benchmarks read these)
        self.stats = {
            "rows_fetched": 0,
            "groups_checked": 0,
            "groups_expanded": 0,
            "groups_pruned": 0,
        }

    # -- protocol ----------------------------------------------------------------

    def attribute_names(self) -> List[str]:
        return list(self._source.schema().attribute_names)

    def load(self, cfds: Sequence[CFD]) -> Relation:
        self._generator = self._source.generator()
        self._start_closure(cfds)
        self._fetched_values = [{} for _ in self._subs]
        self._total_rows = self._source.row_count()
        # The initial working set: exactly the report's violating tuples.
        region = self._source.dirty_region(self.report)
        working = region.copy()
        self._original = region.copy()
        self._note_fetched([values for _tid, values in region.stored_rows()])
        self.stats["rows_fetched"] += len(region)
        self.telemetry.inc("repair.rows_fetched", len(region))
        return working

    def original(self) -> Relation:
        if self._original is None:
            raise RuntimeError("load() must run before original()")
        return self._original

    def column_frequencies(self) -> Dict[str, Counter]:
        self._require_generator()
        return self._source.value_frequencies()

    def begin_round(self, working: Relation) -> List[int]:
        admitted: List[int] = []
        if not self._pending:
            return admitted
        self._require_generator()
        for sub_index, keymap in self._take_pending().items():
            sub = self._subs[sub_index]
            keys = list(keymap)
            rhs_attribute = sub.rhs[0]
            self.stats["groups_checked"] += len(keys)
            # Aggregate pre-filter: member counts straight off the
            # detection index.  A key nobody stores (fresh values) or whose members
            # are all fetched already needs no enumeration.
            counts = self._source.group_member_counts(sub, rhs_attribute, keys)
            fetched = self._fetched_values[sub_index]
            candidates = [
                key
                for key in keys
                if counts.get(key, 0) > sum(fetched.get(key, {}).values())
            ]
            if not candidates:
                continue
            # Majority pruning: a group whose combined value set — working
            # values of fetched members plus backend values of unfetched
            # ones — is already unanimous cannot violate, so the planner
            # would decide nothing differently for it.  One majority_value
            # histogram resolves that without shipping a single member.
            expand = self._prune_decided(working, sub_index, sub, candidates)
            if not expand:
                continue
            self.stats["groups_expanded"] += len(expand)
            missing = sorted(
                tid
                for tid in self._source.covering_member_tids(
                    sub, rhs_attribute, expand
                )
                if tid not in working
            )
            admitted += self._fetch_rows(working, missing)
        return admitted

    def note_change(self, working: Relation, tid: int, attribute: str) -> None:
        # defined here, not only inherited: a tracer that wraps this
        # class's own methods finds it in the class __dict__
        super().note_change(working, tid, attribute)

    def fetch_fraction(self) -> float:
        """Fraction of the stored relation fetched row-by-row so far."""
        if not self._total_rows:
            return 0.0
        return self.stats["rows_fetched"] / self._total_rows

    # -- internals ---------------------------------------------------------------

    def _require_generator(self) -> DetectionSqlGenerator:
        if self._generator is None:
            raise RuntimeError("load() must run before queries are planned")
        return self._generator

    def _prune_decided(
        self,
        working: Relation,
        sub_index: int,
        sub: CFD,
        candidates: List[GroupKey],
    ) -> List[GroupKey]:
        """Drop candidate keys whose group is provably violation-free.

        A group violates only when its *current* full-relation value set —
        the working values of fetched members plus the pristine backend
        values of unfetched ones — holds more than one distinct non-NULL
        RHS value.  The backend side comes from one ``majority_value``
        histogram minus the pristine values of already-fetched rows; a
        unanimous group is pruned (HoloClean-style domain pruning) and
        re-queued by :meth:`note_change` if a fetched member moves again.
        Unfetched rows never change, so the decision cannot go stale.
        """
        rhs_attribute = sub.rhs[0]
        histograms = self._source.majority_values(sub, rhs_attribute, candidates)
        working_values = self._working_values(working, sub)
        fetched_values = self._fetched_values[sub_index]
        expand: List[GroupKey] = []
        for key in candidates:
            stored = histograms.get(key, Counter())
            unfetched = Counter(
                {v: c for v, c in stored.items() if v is not None}
            ) - Counter(fetched_values.get(key, {}))
            distinct = set(working_values.get(key, ()))
            distinct.update(value for value, count in unfetched.items() if count > 0)
            if len(distinct) <= 1:
                self.stats["groups_pruned"] += 1
                self.telemetry.inc("repair.closure_pruned")
                continue
            expand.append(key)
        return expand

    def _note_fetched(self, rows: Sequence[Dict[str, Any]]) -> None:
        """Count pristine fetched rows' RHS values under each closure sub-CFD.

        The counting criterion mirrors :meth:`group_stats_query` exactly —
        LHS equals the key, RHS non-NULL, no pattern filter — so a key's
        counts summing to the backend's ``member_count`` prove every
        backend member of that key is already materialised, and the
        counts subtracted from a ``majority_value`` histogram leave
        exactly the unfetched members' values.  A key's value counter is
        created when the key is first seen.
        """
        for sub, fetched in zip(self._subs, self._fetched_values):
            rhs_attribute, lhs = sub.rhs[0], sub.lhs
            for values in rows:
                value = values.get(rhs_attribute)
                if value is None:
                    continue
                key = tuple(map(values.get, lhs))
                if None in key:
                    continue
                counts = fetched.get(key)
                if counts is None:
                    fetched[key] = {value: 1}
                else:
                    counts[value] = counts.get(value, 0) + 1

    def _admit(self, working: Relation, tid: int, values: Dict[str, Any]) -> None:
        working.insert_at(tid, values)
        # the pristine twin copies the coerced row: one coercion per row
        self.original().insert_copy(working, tid)
        self._note_fetched((values,))
        self.stats["rows_fetched"] += 1
        self.telemetry.inc("repair.rows_fetched")

    def _fetch_rows(self, working: Relation, tids: Sequence[int]) -> List[int]:
        """Fetch the ``tids`` that ``working`` lacks; returns those it added."""
        admitted: List[int] = []
        missing = [tid for tid in tids if tid not in working]
        if not missing:
            return admitted
        for tid, values in sorted(self._source.fetch_rows(missing).items()):
            if tid not in working:
                self._admit(working, tid, values)
                admitted.append(tid)
        return admitted


class ScopedRepairSource(PartialRepairSource):
    """Incremental repair's source: an update batch and the groups it can break.

    ``relation`` is the monitored relation with the batch applied, and
    ``updated_tids`` are the batch's live tuples, the only ones the planner
    may change (it runs with ``restrict_to_tids`` set to them).  The
    working relation starts as those tuples.  Before each round the source
    adds every member of each queued group — an updated tuple's group under
    a wildcard-RHS sub-CFD — whose combined values are not unanimous: the
    working values of members it holds plus the stored values of the rest.
    A unanimous group cannot violate, and its unseen members never change,
    so it is re-checked only when an updated member moves again.

    Members come from ``relation``'s hash indexes
    (:meth:`~repro.engine.relation.Relation.create_index`), which the
    relation maintains across updates once built, so a repair reads the
    batch's groups and never scans the relation.  Only
    :meth:`column_frequencies` scans it, and the planner asks for that only
    to resolve a single-tuple violation or break an LHS.  The working
    relation is a fresh :class:`Relation` that carries none of those
    indexes, so the planner's per-round copies of it stay cheap.
    """

    kind = "scoped"

    def __init__(self, relation: Relation, updated_tids: Iterable[int]):
        self.relation = relation
        self.updated_tids = sorted(updated_tids)
        self._original: Optional[Relation] = None

    def attribute_names(self) -> List[str]:
        return list(self.relation.attribute_names)

    def load(self, cfds: Sequence[CFD]) -> Relation:
        self._start_closure(cfds)
        working = Relation(self.relation.schema)
        self._original = Relation(self.relation.schema)
        for tid in self.updated_tids:
            self._admit(working, tid)
            self._queue_keys(working.get(tid))
        return working

    def original(self) -> Relation:
        if self._original is None:
            raise RuntimeError("load() must run before original()")
        return self._original

    def column_frequencies(self) -> Dict[str, Counter]:
        return native_column_frequencies(self.relation)

    def begin_round(self, working: Relation) -> List[int]:
        admitted: List[int] = []
        for sub_index, keys in self._take_pending().items():
            sub = self._subs[sub_index]
            working_values = self._working_values(working, sub)
            for key in keys:
                unseen = self._members(sub.lhs, key)
                unseen.difference_update(working.tids())
                if not unseen:
                    continue
                values = working_values.get(key, set()) | self._stored_values(
                    sub, key, unseen
                )
                if len(values) > 1:
                    for tid in sorted(unseen):
                        self._admit(working, tid)
                        admitted.append(tid)
        return admitted

    def _stored_values(self, sub: CFD, key: GroupKey, unseen: Set[int]) -> Set[Any]:
        """Distinct non-NULL stored RHS values of the ``unseen`` members.

        Returns all of them when there is at most one, else two of them,
        which is all :meth:`begin_round` needs to know.  The first value
        found is looked up in the relation's index on the group's LHS plus
        RHS: when every unseen member holds it or NULL, it is the only one,
        and a large group (a whole country under ``[CC] -> [CNT]``) is
        decided without reading its members one by one.
        """
        rhs_attribute = sub.rhs[0]
        stored = (self.relation.get(tid).get(rhs_attribute) for tid in unseen)
        first = next((value for value in stored if value is not None), None)
        if first is None:
            return set()
        attributes = sub.lhs + (rhs_attribute,)
        agreeing = self._members(attributes, key + (first,))
        agreeing.update(self._members(attributes, key + (None,)))
        other = next(iter(unseen - agreeing), None)
        if other is None:
            return {first}
        return {first, self.relation.get(other).get(rhs_attribute)}

    def _members(self, attributes: Tuple[str, ...], key: GroupKey) -> Set[int]:
        """Tids whose ``attributes`` hold ``key``, off the relation's hash index.

        The index is built on first use and maintained by the relation
        across updates from then on.
        """
        return self.relation.create_index(attributes).lookup_key(key)

    def _admit(self, working: Relation, tid: int) -> None:
        working.insert_copy(self.relation, tid)
        self.original().insert_copy(self.relation, tid)
