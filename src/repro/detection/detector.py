"""The error detector: batch detection of CFD violations.

The detector compiles each CFD into SQL (see
:mod:`repro.detection.sqlgen`), runs the generated queries through the
storage backend — the paper's pushdown to the underlying DBMS — and
assembles a :class:`~repro.detection.violations.ViolationReport`.  A
native (pure Python) detection path that bypasses SQL is kept both as a
correctness oracle and for the SQL-vs-native ablation benchmark.

The SQL path is *fully backend-resident*: ``Q_C`` carries each violating
tuple's LHS values (``lhs_*`` columns), the one-pass ``Q_V`` returns the
members of every violating group, and schema and row count come from the
backend's catalog ops — ``detect`` and ``detect_for_tuples`` perform
**zero reads against the in-memory working store**, so batch detection
runs against a remote server without shipping the relation back.  The
only writes are the detection indexes (``ensure_index``), one per CFD
and RHS attribute over the LHS followed by that RHS attribute; nothing
is added to the backend's catalog.  Backend values are decoded per
schema dtype (:func:`~repro.backends.sqlite.decode_backend_value`) so
reports stay identical to the native oracle's.

``detect_for_tuples`` pushes the tuple restriction down as well: the
restricted ``Q_C``/``Q_V`` plans re-check only the named tids (rowid
lookups from flat, budget-chunked ``IN`` lists) and the LHS-value groups
they belong to (the restricted ``Q_V`` reads the tids' keys itself and
seeks each group on the index), instead of running a full detection and
filtering the report afterwards, so a request costs the tuples and
groups it names, not the relation.

The detector accepts any :class:`~repro.backends.base.StorageBackend`;
detection SQL is generated under the backend's parameter budget through
one cached generator per relation, whose prepared-plan cache persists
across ``detect`` calls.  The CFDs a relation is detected with are
prepared once (typed by the backend's schema and split into detection
units) and kept until the CFD list or the relation's schema changes.
Over a :class:`~repro.engine.database.Database` it runs
the native path, reading the working relations directly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..backends.base import StorageBackend
from ..backends.sqlite import decode_backend_value
from ..core.cfd import CFD
from ..core.satisfaction import ViolationScan, scan_violations
from ..engine.database import Database
from ..engine.relation import Relation
from ..engine.types import RelationSchema
from ..errors import DetectionError
from ..obs.instrument import InstrumentedBackend
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .sqlgen import LHS_COLUMN_PREFIX, DetectionSqlGenerator, SqlQuery
from .violations import MULTI, SINGLE, Violation, ViolationReport


def _sub_cfd(cfd: CFD, rhs_attribute: str) -> CFD:
    """Restrict ``cfd`` to a single RHS attribute, keeping the full tableau."""
    if cfd.rhs == (rhs_attribute,):
        return cfd
    attrs = cfd.lhs + (rhs_attribute,)
    patterns = tuple(pattern.restrict(attrs) for pattern in cfd.patterns)
    return CFD(
        relation=cfd.relation,
        lhs=cfd.lhs,
        rhs=(rhs_attribute,),
        patterns=patterns,
        name=cfd.name,
    )


def _typed_cfds(
    relation_name: str, cfds: Sequence[CFD], schema: RelationSchema
) -> List[CFD]:
    """``cfds`` typed by ``schema`` (see :meth:`CFD.coerced_to`).

    Each must target ``relation_name``.
    """
    for cfd in cfds:
        if cfd.relation != relation_name:
            raise DetectionError(
                f"CFD {cfd.identifier} targets relation {cfd.relation!r}, "
                f"not {relation_name!r}"
            )
    return [cfd.coerced_to(schema) for cfd in cfds]


@dataclass(frozen=True)
class _Unit:
    """One detection unit: a typed CFD restricted to one RHS attribute."""

    parent: CFD
    sub: CFD

    def violations(self, scan: ViolationScan, relation: Relation) -> List[Violation]:
        """The unit's violations in ``scan``, a native read of ``relation``.

        A tuple that violates several constant patterns is reported once,
        under the first, and a group several patterns cover once, under
        the lowest.  A single-tuple violation takes its LHS values from
        ``relation``.
        """
        cfd_id, lhs, rhs_attribute = self.parent.identifier, self.sub.lhs, self.sub.rhs[0]
        violations: List[Violation] = []
        seen_tids: Set[int] = set()
        for tid, pattern_index in scan.single_tuple_violations():
            if tid in seen_tids:
                continue
            seen_tids.add(tid)
            violations.append(
                Violation(
                    cfd_id=cfd_id,
                    kind=SINGLE,
                    tids=(tid,),
                    rhs_attribute=rhs_attribute,
                    pattern_index=pattern_index,
                    lhs_attributes=lhs,
                    lhs_values=tuple(relation.value(tid, attr) for attr in lhs),
                )
            )
        seen_keys: Set[Tuple[Any, ...]] = set()
        for pattern_index, lhs_values, tids in scan.multi_tuple_violation_groups():
            if lhs_values in seen_keys:
                continue
            seen_keys.add(lhs_values)
            violations.append(
                Violation(
                    cfd_id=cfd_id,
                    kind=MULTI,
                    tids=tuple(tids),
                    rhs_attribute=rhs_attribute,
                    pattern_index=pattern_index,
                    lhs_attributes=lhs,
                    lhs_values=lhs_values,
                )
            )
        return violations


@dataclass(frozen=True)
class _Prepared:
    """A relation's CFDs compiled for SQL detection against one schema.

    Valid while the backend returns the same schema object (a replaced
    relation gets a new one) and the caller passes an equal CFD list.
    """

    schema: RelationSchema
    cfds: Tuple[CFD, ...]
    cfd_ids: Tuple[str, ...]
    #: kept across entries while the schema is equal, so its
    #: prepared-plan cache stays warm
    generator: DetectionSqlGenerator
    units: Tuple[_Unit, ...]
    #: the detection indexes the units ride, each once
    indexes: Tuple[Tuple[str, ...], ...]

    def holds(self, schema: RelationSchema, cfds: Sequence[CFD]) -> bool:
        return self.schema is schema and self.cfds == tuple(cfds)


class ErrorDetector:
    """Detects single-tuple and multi-tuple CFD violations in a relation.

    The detector is safe to share across serving-layer worker threads,
    and several detectors may share one backend: the per-relation
    prepared-CFD map is lock-guarded, each generator's prepared-plan
    cache too, ``last_sql`` is per-thread, and detection writes nothing
    to the backend but the detection indexes, created before any query
    runs.  The query phase of each detection runs inside
    ``backend.read_connection(snapshot=True)``, so a report reflects one
    consistent snapshot of the store even while a writer streams delta
    batches — tuple count included, because the row count is read inside
    the snapshot too.

    The argument picks the path: over a backend the detector runs SQL,
    over a :class:`~repro.engine.database.Database` it runs the native
    oracle on the working relations.
    """

    def __init__(
        self,
        database: Union[Database, StorageBackend],
        telemetry: Optional[Telemetry] = None,
    ):
        #: telemetry context statements and spans are recorded under; the
        #: shared disabled default costs one attribute check per call site
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: the storage backend detection SQL runs on (None over a Database)
        self.backend: Optional[StorageBackend] = None
        #: the working database the native path reads (None over a backend)
        self.database: Optional[Database] = None
        if isinstance(database, StorageBackend):
            self.backend = database
            if self.telemetry.active and not isinstance(
                self.backend, InstrumentedBackend
            ):
                self.backend = InstrumentedBackend(self.backend, self.telemetry)
        else:
            self.database = database
        #: per-thread state (``last_sql``): a worker's statement log must
        #: not interleave with another thread's concurrent detection
        self._local = threading.local()
        #: the CFDs each relation was last detected with, prepared, and
        #: the relation's generator (and prepared-plan cache)
        self._prepared: Dict[str, _Prepared] = {}
        #: guards the map: ``serve()`` workers race a cold detector
        self._lock = threading.Lock()
        #: memoised sub-CFDs (see :meth:`_sub_cfd`)
        self._subs: Dict[Tuple[CFD, str], CFD] = {}

    @property
    def last_sql(self) -> List[str]:
        """SQL statements issued by this thread's last ``detect`` call."""
        log = getattr(self._local, "last_sql", None)
        if log is None:
            log = self._local.last_sql = []
        return log

    @last_sql.setter
    def last_sql(self, value: List[str]) -> None:
        self._local.last_sql = list(value)

    # -- public API --------------------------------------------------------------

    def detect(self, relation_name: str, cfds: Sequence[CFD]) -> ViolationReport:
        """Run detection of every CFD in ``cfds`` over ``relation_name``."""
        with self.telemetry.span(
            "detect", relation=relation_name, cfds=len(cfds)
        ):
            return self._detect(relation_name, cfds)

    def _detect(self, relation_name: str, cfds: Sequence[CFD]) -> ViolationReport:
        self.last_sql = []
        if self.database is not None:
            relation = self.database.relation(relation_name)
            violations: List[Violation] = []
            for cfd in _typed_cfds(relation_name, cfds, relation.schema):
                for rhs_attribute in cfd.rhs:
                    unit = _Unit(parent=cfd, sub=self._sub_cfd(cfd, rhs_attribute))
                    scan = scan_violations(relation, unit.sub)
                    violations.extend(unit.violations(scan, relation))
            cfd_ids = tuple(cfd.identifier for cfd in cfds)
            return self._report(relation_name, cfd_ids, violations, len(relation))

        return self._run(relation_name, self._prepare(relation_name, cfds))

    def detect_for_tuples(
        self, relation_name: str, cfds: Sequence[CFD], tids: Iterable[int]
    ) -> ViolationReport:
        """Detect violations restricted to those involving any tuple in ``tids``.

        Used by the explorer's "why is this tuple dirty" view and by the
        cleansing-review workflow.  On the SQL path the restriction is
        pushed down: the delta ``Q_C``/``Q_V`` plans re-check only the
        named tids and the LHS-value groups they belong to (tid ``IN``
        lists chunked by the parameter budget; the restricted ``Q_V``
        reads the tids' group keys itself), with the same report a full
        detection filtered to ``tids`` would produce.  The native path
        keeps the filter-after-detect evaluation as the oracle.
        """
        with self.telemetry.span(
            "detect_for_tuples", relation=relation_name, cfds=len(cfds)
        ):
            return self._detect_for_tuples(relation_name, cfds, tids)

    def _detect_for_tuples(
        self, relation_name: str, cfds: Sequence[CFD], tids: Iterable[int]
    ) -> ViolationReport:
        wanted = set(tids)
        if self.database is not None:
            report = self.detect(relation_name, cfds)
            filtered = [
                violation
                for violation in report.violations
                if wanted & set(violation.tids)
            ]
            return ViolationReport(
                relation=relation_name,
                violations=filtered,
                tuple_count=report.tuple_count,
                cfd_ids=report.cfd_ids,
            )
        prepared = self._prepare(relation_name, cfds)
        restrict = sorted(wanted)
        if not restrict:
            # no statement runs, so no index is needed either
            return self._report(
                relation_name, prepared.cfd_ids, [],
                self.backend.row_count(relation_name),
            )
        return self._run(relation_name, prepared, restrict)

    # -- SQL-based path ------------------------------------------------------------

    def _prepare(self, relation_name: str, cfds: Sequence[CFD]) -> _Prepared:
        """Shared entry of the backend-resident paths: the prepared CFDs.

        Resets the SQL log and reads the schema through catalog ops — the
        queries run where the data lives and report assembly reads backend
        rows only, so the working store is never touched.  The CFDs are
        prepared (:meth:`_prepared_for`) only when the relation's schema
        object or the CFD list differs from the last call's.
        """
        self.last_sql = []
        schema = self.backend.schema(relation_name)
        with self._lock:
            prepared = self._prepared.get(relation_name)
            if prepared is None or not prepared.holds(schema, cfds):
                prepared = self._prepared_for(relation_name, schema, cfds, prepared)
                self._prepared[relation_name] = prepared
        return prepared

    def _prepared_for(
        self,
        relation_name: str,
        schema: RelationSchema,
        cfds: Sequence[CFD],
        old: Optional[_Prepared],
    ) -> _Prepared:
        """Type ``cfds`` by ``schema`` and split them into detection units.

        One unit per RHS attribute, and the index each unit's statements
        ride: the LHS followed by the RHS attribute, so a group's minimum
        RHS and the test for a greater one are index seeks, and group
        checks read the index alone.  The ``old`` entry's generator is
        kept while the schema is equal.  Called under ``_lock``.
        """
        if old is not None and old.generator.schema == schema:
            generator = old.generator
        else:
            generator = DetectionSqlGenerator(
                schema,
                max_parameters=self.backend.max_parameters,
                telemetry=self.telemetry,
            )
        units: List[_Unit] = []
        indexes: Dict[Tuple[str, ...], None] = {}
        for cfd in _typed_cfds(relation_name, cfds, schema):
            for rhs_attribute in cfd.rhs:
                sub = self._sub_cfd(cfd, rhs_attribute)
                if sub.lhs:
                    indexes[sub.lhs + sub.rhs] = None
                units.append(_Unit(parent=cfd, sub=sub))
        return _Prepared(
            schema=schema,
            cfds=tuple(cfds),
            cfd_ids=tuple(cfd.identifier for cfd in cfds),
            generator=generator,
            units=tuple(units),
            indexes=tuple(indexes),
        )

    def _run(
        self,
        relation_name: str,
        prepared: _Prepared,
        restrict_tids: Optional[Sequence[int]] = None,
    ) -> ViolationReport:
        """Run every unit's statements inside one read snapshot.

        First it creates the indexes the statements ride: the only write
        the SQL path makes, so it happens *before* the snapshot opens, and
        on every call, because dropping a relation drops its indexes (a
        warm call is a set lookup per index).  The row count is read
        inside the snapshot, so the reported ``tuple_count`` is consistent
        with the violations even under a concurrent writer.
        """
        for columns in prepared.indexes:
            self.backend.ensure_index(relation_name, columns)
        violations: List[Violation] = []
        with self.backend.read_connection(snapshot=True):
            tuple_count = self.backend.row_count(relation_name)
            for unit in prepared.units:
                violations.extend(self._detect_sql(prepared, unit, restrict_tids))
        return self._report(relation_name, prepared.cfd_ids, violations, tuple_count)

    def _sub_cfd(self, cfd: CFD, rhs_attribute: str) -> CFD:
        """:func:`_sub_cfd`, the same object for equal arguments on every call.

        The prepared-plan caches key statements by CFD.  A sub-CFD built
        afresh on every detection would make each cache lookup compare
        two tableaux pattern by pattern; the memoised object compares by
        identity, so a warm detection stays linear in the pattern rows.
        """
        key = (cfd, rhs_attribute)
        sub = self._subs.get(key)
        if sub is None:
            sub = self._subs.setdefault(key, _sub_cfd(cfd, rhs_attribute))
        return sub

    @staticmethod
    def _report(
        relation_name: str,
        cfd_ids: Tuple[str, ...],
        violations: List[Violation],
        tuple_count: int,
    ) -> ViolationReport:
        return ViolationReport(
            relation=relation_name,
            violations=violations,
            tuple_count=tuple_count,
            cfd_ids=cfd_ids,
        )

    def _detect_sql(
        self,
        prepared: _Prepared,
        unit: _Unit,
        restrict_tids: Optional[Sequence[int]] = None,
    ) -> List[Violation]:
        """Run one detection unit's queries and assemble its violations.

        Query-only: the caller typically holds a read snapshot, and nothing
        here writes to the backend.
        """
        generator, sub = prepared.generator, unit.sub
        if restrict_tids is None:
            single_queries = generator.plan_single_queries(sub)
            multi_queries = generator.plan_multi_queries(sub)
            wanted: Optional[Set[int]] = None
        else:
            single_queries = generator.plan_delta_single(sub, restrict_tids)
            multi_queries = generator.plan_delta_multi(sub, sub.rhs[0], restrict_tids)
            wanted = set(restrict_tids)
        violations: List[Violation] = []
        violations.extend(
            self._assemble_singles(unit.parent, sub, prepared.schema, single_queries)
        )
        violations.extend(
            self._assemble_multis(
                unit.parent, sub, prepared.schema, multi_queries, wanted
            )
        )
        return violations

    def _execute(self, query: SqlQuery) -> List[Dict[str, Any]]:
        self.last_sql.append(query.sql)
        if not self.telemetry.active:
            return self.backend.execute(query.sql, query.parameters)
        # announce the generator's statement kind so the instrumented
        # backend buckets the execution under it (q_window, q_c_sargable)
        with self.telemetry.tag_statements(query.kind):
            return self.backend.execute(query.sql, query.parameters)

    def _assemble_singles(
        self,
        parent: CFD,
        cfd: CFD,
        schema: RelationSchema,
        queries: Sequence[SqlQuery],
    ) -> List[Violation]:
        rhs_attribute = cfd.rhs[0]
        # With overlapping pattern tuples the same tid can violate several
        # patterns; result order is engine-dependent, so pick the lowest
        # pattern index — the rule the native and incremental paths follow.
        # The rows carry the tuple's LHS values (lhs_* columns), so no
        # working-store read is needed to label the violation.
        chosen: Dict[int, Tuple[int, Tuple[Any, ...]]] = {}
        for query in queries:
            # each statement checks one pattern, carried on the query
            pattern_index = query.pattern_index
            for row in self._execute(query):
                tid = row["tid"]
                if tid not in chosen or pattern_index < chosen[tid][0]:
                    lhs_raw = tuple(
                        row.get(LHS_COLUMN_PREFIX + attr) for attr in cfd.lhs
                    )
                    chosen[tid] = (pattern_index, lhs_raw)
        violations: List[Violation] = []
        for tid in sorted(chosen):
            pattern_index, lhs_raw = chosen[tid]
            violations.append(
                Violation(
                    cfd_id=parent.identifier,
                    kind=SINGLE,
                    tids=(tid,),
                    rhs_attribute=rhs_attribute,
                    pattern_index=pattern_index,
                    lhs_attributes=cfd.lhs,
                    lhs_values=tuple(
                        decode_backend_value(schema.attribute(attr).dtype, value)
                        for attr, value in zip(cfd.lhs, lhs_raw)
                    ),
                )
            )
        return violations

    def _assemble_multis(
        self,
        parent: CFD,
        cfd: CFD,
        schema: RelationSchema,
        queries: Sequence[SqlQuery],
        wanted: Optional[Set[int]] = None,
    ) -> List[Violation]:
        rhs_attribute = cfd.rhs[0]
        # One statement per pattern, each returning the member rows of its
        # violating groups, so an LHS group covered by several overlapping
        # pattern tuples comes back once per matching pattern.  Report each
        # group exactly once, under its lowest violating pattern index —
        # the same rule the native and incremental paths apply; the member
        # set is a property of the key alone, so overlapping patterns just
        # re-deliver it.  Keys stay in the backend's value representation
        # until the final decode.  This is the serving hot loop (one
        # iteration per member row), so the group key is built from
        # precomputed column names and the bucket is fetched with a single
        # dict probe.
        grouped: Dict[Tuple[Any, ...], int] = {}
        members: Dict[Tuple[Any, ...], Set[int]] = {}
        key_columns = [LHS_COLUMN_PREFIX + attr for attr in cfd.lhs]
        members_get = members.get
        for query in queries:
            pattern_index = query.pattern_index
            for row in self._execute(query):
                key = tuple([row[column] for column in key_columns])
                bucket = members_get(key)
                if bucket is None:
                    members[key] = bucket = set()
                    grouped[key] = pattern_index
                elif pattern_index < grouped[key]:
                    grouped[key] = pattern_index
                bucket.add(row["tid"])
        violations: List[Violation] = []
        for lhs_values, pattern_index in grouped.items():
            tids = sorted(members.get(lhs_values, []))
            if len(tids) < 2:
                continue
            if wanted is not None and not (wanted & set(tids)):
                # restricted detection: the group shares LHS values with a
                # named tuple, but that tuple is not a member (e.g. NULL
                # RHS) — a full detect + filter would not report it
                continue
            violations.append(
                Violation(
                    cfd_id=parent.identifier,
                    kind=MULTI,
                    tids=tuple(tids),
                    rhs_attribute=rhs_attribute,
                    pattern_index=pattern_index,
                    lhs_attributes=cfd.lhs,
                    lhs_values=tuple(
                        decode_backend_value(schema.attribute(attr).dtype, value)
                        for attr, value in zip(cfd.lhs, lhs_values)
                    ),
                )
            )
        return violations
