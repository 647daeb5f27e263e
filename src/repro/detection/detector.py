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
only writes are the CFD-LHS indexes (``ensure_index``); nothing is added
to the backend's catalog.  Backend values are decoded per schema dtype
(:func:`decode_backend_value`) so reports stay identical to the native
oracle's.

``detect_for_tuples`` pushes the tuple restriction down as well: the
restricted ``Q_C``/``Q_V`` plans re-check only the named tids (flat,
dialect-chunked ``IN`` lists) and the LHS-value groups they belong to,
instead of running a full detection and filtering the report afterwards.

The detector accepts any :class:`~repro.backends.base.StorageBackend`;
detection SQL is generated in the backend's dialect through one cached
generator per relation, whose prepared-plan cache persists across
``detect`` calls.  Over a :class:`~repro.engine.database.Database` it runs
the native path only, reading the working relations directly: asking it
for SQL raises :class:`~repro.errors.SqlBackendRequiredError`.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..backends.base import StorageBackend
from ..core.cfd import CFD
from ..core.satisfaction import (
    multi_tuple_violation_groups,
    single_tuple_violations,
)
from ..engine.database import Database
from ..engine.relation import Relation
from ..engine.types import DataType, RelationSchema
from ..errors import DetectionError, SqlBackendRequiredError
from ..obs.instrument import InstrumentedBackend
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .sqlgen import LHS_COLUMN_PREFIX, DetectionSqlGenerator, SqlQuery
from .violations import MULTI, SINGLE, Violation, ViolationReport


def decode_backend_value(schema: RelationSchema, attribute: str, value: Any) -> Any:
    """Decode one backend-stored value into its engine representation.

    SQLite hands back stored representations (0/1 for booleans); the
    working store holds engine values — hash-equal, but reports must show
    the latter.  Every other type round-trips unchanged.  Shared by the
    detector's report assembly and the backend tuple source.
    """
    if value is None:
        return None
    if schema.attribute(attribute).dtype is DataType.BOOLEAN:
        return bool(value)
    return value


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


class ErrorDetector:
    """Detects single-tuple and multi-tuple CFD violations in a relation.

    The detector is safe to share across serving-layer worker threads,
    and several detectors may share one backend: the per-relation
    generator map and its prepared-plan caches are lock-guarded,
    ``last_sql`` is per-thread, and detection writes nothing to the
    backend but the CFD-LHS indexes, created before any query runs.  The
    query phase of each detection runs inside
    ``backend.read_connection(snapshot=True)``, so a report reflects one
    consistent snapshot of the store even while a writer streams delta
    batches — tuple count included, because the row count is read inside
    the snapshot too.

    The argument picks the path: over a backend the detector runs SQL,
    over a :class:`~repro.engine.database.Database` it runs the native
    oracle on the working relations.  ``use_sql`` only asserts that
    choice: ``True`` over a Database raises
    :class:`~repro.errors.SqlBackendRequiredError`, ``False`` over a
    backend raises :class:`~repro.errors.DetectionError`.
    """

    def __init__(
        self,
        database: Union[Database, StorageBackend],
        use_sql: Optional[bool] = None,
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
            if use_sql is False:
                raise DetectionError(
                    "native detection reads the working Database; build "
                    "the detector over the Database, not a backend"
                )
            self.backend = database
            if self.telemetry.active and not isinstance(
                self.backend, InstrumentedBackend
            ):
                self.backend = InstrumentedBackend(self.backend, self.telemetry)
        elif use_sql:
            raise SqlBackendRequiredError(
                "SQL detection needs a StorageBackend; build the detector "
                "over a backend, or use native detection over the Database"
            )
        else:
            self.database = database
        #: per-thread state (``last_sql``): a worker's statement log must
        #: not interleave with another thread's concurrent detection
        self._local = threading.local()
        #: one generator (and prepared-plan cache) per detected relation
        self._generators: Dict[str, DetectionSqlGenerator] = {}
        self._generators_lock = threading.Lock()

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
            tuple_count = len(relation)
            typed = self._validate(relation_name, cfds, relation.schema)
            violations: List[Violation] = []
            for cfd in typed:
                for rhs_attribute in cfd.rhs:
                    sub = _sub_cfd(cfd, rhs_attribute)
                    violations.extend(self._detect_native(relation, cfd, sub))
            return self._report(relation_name, cfds, violations, tuple_count)

        schema, typed = self._sql_preamble(relation_name, cfds)
        generator = self._generator_for(relation_name, schema)
        units = self._detection_units(relation_name, typed)
        violations = []
        with self.backend.read_connection(snapshot=True):
            tuple_count = self.backend.row_count(relation_name)
            for _, cfd, sub in units:
                violations.extend(self._detect_sql(generator, schema, cfd, sub))
        return self._report(relation_name, cfds, violations, tuple_count)

    def detect_for_tuples(
        self, relation_name: str, cfds: Sequence[CFD], tids: Iterable[int]
    ) -> ViolationReport:
        """Detect violations restricted to those involving any tuple in ``tids``.

        Used by the explorer's "why is this tuple dirty" view and by the
        cleansing-review workflow.  On the SQL path the restriction is
        pushed down: the delta ``Q_C``/``Q_V`` plans re-check only the
        named tids and the LHS-value groups they belong to (flat tid ``IN``
        lists and row-value group restrictions, chunked by the parameter
        budget), with the same report a full detection filtered
        to ``tids`` would produce.  The native path keeps the
        filter-after-detect evaluation as the oracle.
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
        schema, typed = self._sql_preamble(relation_name, cfds)
        violations: List[Violation] = []
        restrict = sorted(wanted)
        if not restrict:
            return self._report(
                relation_name, cfds, violations,
                self.backend.row_count(relation_name),
            )
        generator = self._generator_for(relation_name, schema)
        units = self._detection_units(relation_name, typed)
        with self.backend.read_connection(snapshot=True):
            tuple_count = self.backend.row_count(relation_name)
            # the affected LHS-value groups depend on the (parent) LHS
            # alone, so one backend lookup serves every RHS attribute of a
            # merged CFD
            group_keys: Dict[int, List[Tuple[Any, ...]]] = {}
            for index, cfd, sub in units:
                needs_keys = bool(sub.lhs) and generator.wildcard_rhs_attributes(sub)
                if needs_keys and index not in group_keys:
                    group_keys[index] = self._restricted_group_keys(
                        generator, cfd, restrict
                    )
                violations.extend(
                    self._detect_sql(
                        generator,
                        schema,
                        cfd,
                        sub,
                        restrict_tids=restrict,
                        restrict_keys=group_keys[index] if needs_keys else [],
                    )
                )
        return self._report(relation_name, cfds, violations, tuple_count)

    # -- SQL-based path ------------------------------------------------------------

    def _sql_preamble(
        self, relation_name: str, cfds: Sequence[CFD]
    ) -> Tuple[RelationSchema, List[CFD]]:
        """Shared entry of the backend-resident paths.

        Resets the SQL log and reads the schema through catalog ops — the
        queries run where the data lives and report assembly reads backend
        rows only, so the working store is never touched.  Returns the
        schema and the CFDs typed against it.  The row count is *not* read
        here: callers read it inside their read snapshot so the reported
        ``tuple_count`` is consistent with the violations even under a
        concurrent writer.
        """
        self.last_sql = []
        schema = self.backend.schema(relation_name)
        return schema, self._validate(relation_name, cfds, schema)

    def _detection_units(
        self, relation_name: str, cfds: Sequence[CFD]
    ) -> List[Tuple[int, CFD, CFD]]:
        """One ``(index, parent, sub-CFD)`` per RHS attribute.

        Also creates the CFD-LHS index each unit's statements ride.  That
        is the only write the SQL path makes, so it happens here, *before*
        the caller opens its read snapshot.
        """
        units: List[Tuple[int, CFD, CFD]] = []
        for index, cfd in enumerate(cfds):
            for rhs_attribute in cfd.rhs:
                sub = _sub_cfd(cfd, rhs_attribute)
                if sub.lhs:
                    self.backend.ensure_index(relation_name, sub.lhs)
                units.append((index, cfd, sub))
        return units

    def _report(
        self,
        relation_name: str,
        cfds: Sequence[CFD],
        violations: List[Violation],
        tuple_count: int,
    ) -> ViolationReport:
        return ViolationReport(
            relation=relation_name,
            violations=violations,
            tuple_count=tuple_count,
            cfd_ids=tuple(cfd.identifier for cfd in cfds),
        )

    def _validate(
        self, relation_name: str, cfds: Sequence[CFD], schema: RelationSchema
    ) -> List[CFD]:
        """The CFDs with their constants typed by ``schema`` (see :meth:`CFD.coerced_to`)."""
        for cfd in cfds:
            if cfd.relation != relation_name:
                raise DetectionError(
                    f"CFD {cfd.identifier} targets relation {cfd.relation!r}, "
                    f"not {relation_name!r}"
                )
        return [cfd.coerced_to(schema) for cfd in cfds]

    def _generator_for(
        self, relation_name: str, schema: RelationSchema
    ) -> DetectionSqlGenerator:
        """The cached per-relation generator (rebuilt on schema change).

        Keeping the generator across ``detect`` calls is what makes its
        prepared-plan cache effective: repeated detections over the same
        CFDs reuse the rendered ``Q_C``/``Q_V``/members statements.
        """
        with self._generators_lock:
            generator = self._generators.get(relation_name)
            if generator is None or generator.schema != schema:
                generator = DetectionSqlGenerator(
                    schema, dialect=self.backend.dialect, telemetry=self.telemetry
                )
                self._generators[relation_name] = generator
            return generator

    def _detect_sql(
        self,
        generator: DetectionSqlGenerator,
        schema: RelationSchema,
        parent: CFD,
        cfd: CFD,
        restrict_tids: Optional[Sequence[int]] = None,
        restrict_keys: Optional[Sequence[Tuple[Any, ...]]] = None,
    ) -> List[Violation]:
        """Run one detection unit's queries and assemble its violations.

        Query-only: the caller typically holds a read snapshot, and nothing
        here writes to the backend.
        """
        if restrict_tids is None:
            single_queries = generator.plan_single_queries(cfd)
            multi_queries = generator.plan_multi_queries(cfd)
            wanted: Optional[Set[int]] = None
        else:
            single_queries = generator.plan_delta_single(cfd, restrict_tids)
            multi_queries = generator.plan_delta_multi(
                cfd, cfd.rhs[0], list(restrict_keys or [])
            )
            wanted = set(restrict_tids)
        violations: List[Violation] = []
        violations.extend(
            self._assemble_singles(parent, cfd, schema, single_queries)
        )
        violations.extend(
            self._assemble_multis(parent, cfd, schema, multi_queries, wanted)
        )
        return violations

    def _execute(self, query: SqlQuery) -> List[Dict[str, Any]]:
        self.last_sql.append(query.sql)
        if not self.telemetry.active:
            return self.backend.execute(query.sql, query.parameters)
        # announce the generator's statement kind so the instrumented
        # backend buckets the execution under it (q_window, lhs_values, ...)
        with self.telemetry.tag_statements(query.kind):
            return self.backend.execute(query.sql, query.parameters)

    def _restricted_group_keys(
        self,
        generator: DetectionSqlGenerator,
        cfd: CFD,
        tids: Sequence[int],
    ) -> List[Tuple[Any, ...]]:
        """The LHS-value groups the restricted tuples belong to.

        Fetched from the backend (NULL-LHS tuples excluded by the engine),
        so the restricted ``Q_V`` re-checks exactly the groups a full
        detection would have reported these tuples under.
        """
        keys: Dict[Tuple[Any, ...], None] = {}
        for plan in generator.lhs_values_plans(cfd, tids):
            for row in self._execute(plan):
                key = tuple(row[LHS_COLUMN_PREFIX + attr] for attr in cfd.lhs)
                keys[key] = None
        return list(keys)

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
                        decode_backend_value(schema, attr, value)
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
                        decode_backend_value(schema, attr, value)
                        for attr, value in zip(cfd.lhs, lhs_values)
                    ),
                )
            )
        return violations

    # -- native (non-SQL) path --------------------------------------------------------

    def _detect_native(
        self, relation: Relation, parent: CFD, cfd: CFD
    ) -> List[Violation]:
        rhs_attribute = cfd.rhs[0]
        violations: List[Violation] = []
        seen_single: Set[int] = set()
        for tid, pattern_index in single_tuple_violations(relation, cfd):
            if tid in seen_single:
                continue
            seen_single.add(tid)
            data_row = relation.get(tid)
            violations.append(
                Violation(
                    cfd_id=parent.identifier,
                    kind=SINGLE,
                    tids=(tid,),
                    rhs_attribute=rhs_attribute,
                    pattern_index=pattern_index,
                    lhs_attributes=cfd.lhs,
                    lhs_values=tuple(data_row.get(attr) for attr in cfd.lhs),
                )
            )
        seen_groups: Set[Tuple[Any, ...]] = set()
        for pattern_index, lhs_values, tids in multi_tuple_violation_groups(relation, cfd):
            if lhs_values in seen_groups:
                continue
            seen_groups.add(lhs_values)
            violations.append(
                Violation(
                    cfd_id=parent.identifier,
                    kind=MULTI,
                    tids=tuple(tids),
                    rhs_attribute=rhs_attribute,
                    pattern_index=pattern_index,
                    lhs_attributes=cfd.lhs,
                    lhs_values=lhs_values,
                )
            )
        return violations
