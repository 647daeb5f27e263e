"""Repair data sources: where the repairer's relational work runs.

PR 7 splits the data cleanser into two halves:

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

* the initial tuple set is the violating tuples of a backend-resident
  ``detect()`` (reusing the PR 5 pushdown end to end);
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
  already are dismissed by count alone), and only the remainder pay a
  sargable :meth:`~DetectionSqlGenerator.covering_members_query`
  enumeration plus a :meth:`~DetectionSqlGenerator.row_fetch_query` for
  the missing rows.

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
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..backends.base import StorageBackend
from ..core.cfd import CFD
from ..detection.detector import ErrorDetector
from ..detection.sqlgen import DetectionSqlGenerator
from ..engine.relation import Relation
from ..engine.types import RelationSchema
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..sources.backend import BackendTupleSource
from ..sources.base import GroupKey
from ..sources.native import native_column_frequencies

__all__ = [
    "GroupKey",
    "RepairDataSource",
    "NativeRepairSource",
    "BackendRepairSource",
    "native_column_frequencies",
]

class RepairDataSource:
    """What the repair planner needs from storage, as a narrow protocol."""

    #: whether the source keeps the relation backend-resident
    resident = False

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

    def begin_round(self, working: Relation) -> None:
        """Hook before each violation-collection round (closure maintenance)."""

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


class BackendRepairSource(RepairDataSource):
    """Backend-resident source: the planner sees only the tuples it needs.

    ``detector`` may be shared (the facade passes its own, so the repair
    reuses its per-relation generator and prepared-plan caches); when
    omitted a private one is built over ``backend``.

    ``fetch_threshold`` (0 < t <= 1, ``None`` = disabled) caps the fraction
    of the relation the closure may fetch row-by-row.  When the dirty
    region at load time — or the cumulative fetches a closure round would
    reach — crosses ``t * row_count``, the source falls back to one
    keyset-paged full scan (``page_fetch``) and completes the working
    relation, which is strictly cheaper than paying O(N / chunk) ``IN``
    restrictions to fetch nearly everything anyway.  The blanket-group
    pathology (``[CC] -> [CNT]`` noise turning whole countries into one
    multi-tuple violation) is exactly that regime.
    """

    resident = True

    #: rows per ``page_fetch`` statement when the full-scan fallback engages
    FALLBACK_PAGE_SIZE = 512

    def __init__(
        self,
        backend: StorageBackend,
        relation_name: str,
        telemetry: Optional[Telemetry] = None,
        detector: Optional[ErrorDetector] = None,
        fetch_threshold: Optional[float] = None,
    ):
        self.backend = backend
        self.relation_name = relation_name
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.fetch_threshold = fetch_threshold
        self._detector = detector or ErrorDetector(
            backend, use_sql=True, telemetry=telemetry
        )
        #: shared read layer: every pushed-down read goes through here
        self._source = BackendTupleSource(backend, relation_name, telemetry=telemetry)
        self._schema: Optional[RelationSchema] = None
        self._generator: Optional[DetectionSqlGenerator] = None
        self._original: Optional[Relation] = None
        self._total_rows = 0
        #: whether the working relation holds every stored tuple (set by
        #: the threshold fallback; closure rounds become no-ops)
        self._complete = False
        #: pristine backend rows of every fetched tuple (decoded values);
        #: the backend copy is frozen while a repair is planned, so these
        #: answer "is every backend member of this key already fetched?"
        #: exactly, without a round trip
        self._backend_rows: Dict[int, Dict[str, Any]] = {}
        #: per closure sub-CFD: pristine member count per LHS key among the
        #: fetched rows (maintained at fetch time so the begin_round
        #: pre-filter is a dictionary lookup, not a scan)
        self._fetched_members: List[Counter] = []
        #: per closure sub-CFD: pristine non-NULL RHS values per LHS key
        #: among the fetched rows — subtracting these from a backend
        #: ``majority_value`` histogram leaves the unfetched remainder
        self._fetched_values: List[Dict[GroupKey, Counter]] = []
        #: normalised sub-CFDs with a wildcard RHS (the only shapes whose
        #: group membership a cell change can grow)
        self._subs: List[CFD] = []
        #: closure queue: sub-CFD index -> ordered set of LHS keys to re-check
        self._pending: Dict[int, Dict[GroupKey, None]] = {}
        #: SQL issued by this source (the detector keeps its own log);
        #: shared with the tuple source so both halves log to one place
        self.last_sql: List[str] = self._source.last_sql
        #: pushdown counters (tests and benchmarks read these)
        self.stats = {
            "rows_fetched": 0,
            "groups_checked": 0,
            "groups_expanded": 0,
            "groups_pruned": 0,
            "fallback_shipback": 0,
        }

    # -- protocol ----------------------------------------------------------------

    def attribute_names(self) -> List[str]:
        return list(self._schema_of().attribute_names)

    def load(self, cfds: Sequence[CFD]) -> Relation:
        schema = self._schema_of()
        self._generator = DetectionSqlGenerator(
            schema, dialect=self.backend.dialect, telemetry=self.telemetry
        )
        self._source._generator = self._generator  # share the plan cache
        self._subs = self._closure_subs(cfds)
        self._fetched_members = [Counter() for _ in self._subs]
        self._fetched_values = [{} for _ in self._subs]
        self._total_rows = self._source.row_count()
        working = Relation(schema)
        self._original = Relation(schema)
        # The initial working set: exactly the violating tuples, found by
        # the backend-resident detect (zero working-store reads, PR 5).
        report = self._detector.detect(self.relation_name, cfds)
        dirty = sorted(report.dirty_tids())
        if self._over_threshold(len(dirty)):
            self._ship_all(working)
        else:
            self._fetch_rows(working, dirty)
        return working

    def original(self) -> Relation:
        if self._original is None:
            raise RuntimeError("load() must run before original()")
        return self._original

    def column_frequencies(self) -> Dict[str, Counter]:
        self._require_generator()
        return self._source.value_frequencies()

    def begin_round(self, working: Relation) -> None:
        if self._complete or not self._pending:
            return
        pending, self._pending = self._pending, {}
        self._require_generator()
        for sub_index, keymap in pending.items():
            sub = self._subs[sub_index]
            keys = list(keymap)
            rhs_attribute = sub.rhs[0]
            self.stats["groups_checked"] += len(keys)
            # Aggregate pre-filter: member counts straight off the CFD-LHS
            # index.  A key nobody stores (fresh values) or whose members
            # are all fetched already needs no enumeration.
            counts = self._source.group_member_counts(sub, rhs_attribute, keys)
            fetched = self._fetched_members[sub_index]
            candidates = [
                key for key in keys if counts.get(key, 0) > fetched[key]
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
            if self._over_threshold(self.stats["rows_fetched"] + len(missing)):
                self._ship_all(working)
                return
            self._fetch_rows(working, missing)

    def note_change(self, working: Relation, tid: int, attribute: str) -> None:
        if self._complete:
            return  # the working relation already holds every stored tuple
        row = working.get(tid)
        for sub_index, sub in enumerate(self._subs):
            if attribute not in sub.lhs and attribute != sub.rhs[0]:
                continue
            key = tuple(row.get(attr) for attr in sub.lhs)
            if any(value is None for value in key):
                continue  # NULL-LHS tuples belong to no group
            if not self._key_applicable(sub, key):
                continue  # no wildcard-RHS pattern covers this key
            self._pending.setdefault(sub_index, {})[key] = None

    def fetch_fraction(self) -> float:
        """Fraction of the stored relation fetched row-by-row so far."""
        if not self._total_rows:
            return 0.0
        return self.stats["rows_fetched"] / self._total_rows

    # -- internals ---------------------------------------------------------------

    def _schema_of(self) -> RelationSchema:
        if self._schema is None:
            self._schema = self.backend.schema(self.relation_name)
        return self._schema

    def _require_generator(self) -> DetectionSqlGenerator:
        if self._generator is None:
            raise RuntimeError("load() must run before queries are planned")
        return self._generator

    def _closure_subs(self, cfds: Sequence[CFD]) -> List[CFD]:
        subs: List[CFD] = []
        seen = set()
        for cfd in cfds:
            for sub in cfd.normalize():
                signature = (sub.lhs, sub.rhs, sub.patterns)
                if signature in seen:
                    continue
                seen.add(signature)
                if sub.lhs and any(
                    sub.rhs_pattern(pattern).value(sub.rhs[0]).is_wildcard
                    for pattern in sub.patterns
                ):
                    subs.append(sub)
        return subs

    def _key_applicable(self, sub: CFD, key: GroupKey) -> bool:
        """Whether some wildcard-RHS pattern's LHS constants match ``key``."""
        rhs_attribute = sub.rhs[0]
        row_like = dict(zip(sub.lhs, key))
        for pattern in sub.patterns:
            if not pattern.value(rhs_attribute).is_wildcard:
                continue
            if sub.lhs_pattern(pattern).matches(row_like):
                return True
        return False

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
            ) - fetched_values.get(key, Counter())
            distinct = set(working_values.get(key, ()))
            distinct.update(value for value, count in unfetched.items() if count > 0)
            if len(distinct) <= 1:
                self.stats["groups_pruned"] += 1
                self.telemetry.inc("repair.closure_pruned")
                continue
            expand.append(key)
        return expand

    def _working_values(
        self, working: Relation, sub: CFD
    ) -> Dict[GroupKey, Set[Any]]:
        """Distinct non-NULL working RHS values per working LHS key."""
        rhs_attribute = sub.rhs[0]
        index: Dict[GroupKey, Set[Any]] = {}
        for _tid, row in working.rows():
            value = row.get(rhs_attribute)
            if value is None:
                continue
            key = tuple(row.get(attr) for attr in sub.lhs)
            if any(part is None for part in key):
                continue
            index.setdefault(key, set()).add(value)
        return index

    def _over_threshold(self, rows_needed: int) -> bool:
        if self.fetch_threshold is None or not self._total_rows:
            return False
        return rows_needed > self.fetch_threshold * self._total_rows

    def _ship_all(self, working: Relation) -> None:
        """Threshold fallback: complete the working relation in one paged scan."""
        after_tid = -1
        while True:
            page = self._source.page(
                after_tid=after_tid, page_size=self.FALLBACK_PAGE_SIZE
            )
            for tid, values in page:
                after_tid = tid
                if tid not in working:
                    self._admit(working, tid, values)
            if len(page) < self.FALLBACK_PAGE_SIZE:
                break
        self._complete = True
        self._pending = {}
        self.stats["fallback_shipback"] = 1
        self.telemetry.inc("repair.fallback_shipback")

    def _note_fetched(self, values: Dict[str, Any]) -> None:
        """Account one pristine fetched row in the per-sub member counters.

        The counting criterion mirrors :meth:`group_stats_query` exactly —
        LHS equals the key, RHS non-NULL, no pattern filter — so a
        counter hitting the backend's ``member_count`` proves every
        backend member of that key is already materialised, and the value
        counter subtracted from a ``majority_value`` histogram leaves
        exactly the unfetched members' values.
        """
        for index, sub in enumerate(self._subs):
            value = values.get(sub.rhs[0])
            if value is None:
                continue
            key = tuple(values.get(attr) for attr in sub.lhs)
            if any(part is None for part in key):
                continue
            self._fetched_members[index][key] += 1
            self._fetched_values[index].setdefault(key, Counter())[value] += 1

    def _admit(self, working: Relation, tid: int, values: Dict[str, Any]) -> None:
        working.insert_at(tid, dict(values))
        self.original().insert_at(tid, dict(values))
        self._backend_rows[tid] = values
        self._note_fetched(values)
        self.stats["rows_fetched"] += 1
        self.telemetry.inc("repair.rows_fetched")

    def _fetch_rows(self, working: Relation, tids: Sequence[int]) -> None:
        missing = [tid for tid in tids if tid not in working]
        if not missing:
            return
        for tid, values in sorted(self._source.fetch_rows(missing).items()):
            if tid not in working:
                self._admit(working, tid, values)
