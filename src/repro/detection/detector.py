"""The error detector: batch detection of CFD violations.

The detector compiles each CFD into SQL (see
:mod:`repro.detection.sqlgen`), materialises the pattern tableau as a
relation in the storage backend, runs the generated queries through the
backend — the paper's pushdown to the underlying DBMS — and assembles a
:class:`~repro.detection.violations.ViolationReport`.  A native (pure
Python) detection path that bypasses SQL is kept both as a correctness
oracle and for the SQL-vs-native ablation benchmark.

The SQL path is *fully backend-resident*: ``Q_C`` carries each violating
tuple's LHS values (``lhs_*`` columns), group members are enumerated by
the covering members plan
(:meth:`~repro.detection.sqlgen.DetectionSqlGenerator.covering_members_query`),
and schema and row count come from the backend's catalog ops — ``detect``
and ``detect_for_tuples`` perform **zero reads against the in-memory
working store**, so batch detection runs against a remote server without
shipping the relation back.  Backend values are decoded per schema dtype
(:func:`decode_backend_value`) so reports stay identical to the native
oracle's.

``detect_for_tuples`` pushes the tuple restriction down as well: the
PR 4-style delta plans re-check only the named tids (flat, dialect-chunked
``IN`` lists) and the LHS-value groups they belong to, instead of running
a full detection and filtering the report afterwards.

The detector accepts any :class:`~repro.backends.base.StorageBackend`;
detection SQL is generated in the backend's dialect through one cached
generator per relation, whose prepared-plan cache persists across
``detect`` calls.  Over a :class:`~repro.engine.database.Database` it runs
the native path only, reading the working relations directly: asking it
for SQL raises :class:`~repro.errors.SqlBackendRequiredError`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..backends.base import StorageBackend
from ..core.cfd import CFD
from ..core.satisfaction import (
    multi_tuple_violation_groups,
    single_tuple_violations,
)
from ..core.tableau import tableau_to_relation
from ..engine.database import Database
from ..engine.relation import Relation
from ..engine.types import DataType, RelationSchema
from ..errors import DetectionError, SqlBackendRequiredError
from ..obs.instrument import InstrumentedBackend
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .sqlgen import (
    LHS_COLUMN_PREFIX,
    DetectionSqlGenerator,
    SqlQuery,
    default_detect_plan,
    tableau_relation_name,
)
from .violations import MULTI, SINGLE, Violation, ViolationReport


def decode_backend_value(schema: RelationSchema, attribute: str, value: Any) -> Any:
    """Decode one backend-stored value into its engine representation.

    SQLite hands back stored representations (0/1 for booleans); the
    working store holds engine values — hash-equal, but reports must show
    the latter.  Every other type round-trips unchanged.  Shared by the
    batch detector and the incremental detector's ``sql_delta`` mode.
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

    The detector is safe to share across serving-layer worker threads:
    the per-relation generator map and its prepared-plan caches are
    lock-guarded, ``last_sql`` is per-thread, and detection tableaux are
    handed out through reference-counted leases.  A tableau's content is
    a pure function of its CFD, so concurrent detections of the same CFD
    share one materialisation (the lease refcount keeps the drop until
    the last reader finishes); a detection needing the same positional
    name for a *different* CFD waits for the current occupant's leases to
    drain.  Leases are always acquired in sorted name order, so two
    threads holding overlapping tableau sets can never deadlock.  The
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
        detect_plan: Optional[str] = None,
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
        #: requested detection plan family (``None`` = environment/auto);
        #: each generator resolves it to the variant that runs
        self.detect_plan = detect_plan
        #: per-thread state (``last_sql``): a worker's statement log must
        #: not interleave with another thread's concurrent detection
        self._local = threading.local()
        #: one generator (and prepared-plan cache) per detected relation
        self._generators: Dict[str, DetectionSqlGenerator] = {}
        self._generators_lock = threading.Lock()
        #: tableau name -> [owning CFD, lease refcount]; guarded by the
        #: condition below, which is also what a thread waits on when a
        #: different CFD currently occupies the name it needs
        self._tableau_leases: Dict[str, List[Any]] = {}
        self._tableau_cond = threading.Condition()

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
            self._validate(relation_name, cfds, relation.schema)
            violations: List[Violation] = []
            for cfd in cfds:
                for rhs_attribute in cfd.rhs:
                    sub = _sub_cfd(cfd, rhs_attribute)
                    violations.extend(self._detect_native(relation, cfd, sub))
            return self._report(relation_name, cfds, violations, tuple_count)

        schema = self._sql_preamble(relation_name, cfds)
        generator = self._generator_for(relation_name, schema)
        self.telemetry.inc(f"detect.plan_variant.{generator.detect_plan}")
        units = self._detection_units(cfds)
        violations = []
        with self._leased_tableaux(generator, relation_name, units):
            with self.backend.read_connection(snapshot=True):
                tuple_count = self.backend.row_count(relation_name)
                for unit in units:
                    _, cfd, sub, tableau_name = unit
                    violations.extend(
                        self._detect_sql(generator, schema, cfd, sub, tableau_name)
                    )
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
        schema = self._sql_preamble(relation_name, cfds)
        violations: List[Violation] = []
        restrict = sorted(wanted)
        if not restrict:
            return self._report(
                relation_name, cfds, violations,
                self.backend.row_count(relation_name),
            )
        generator = self._generator_for(relation_name, schema)
        self.telemetry.inc(f"detect.plan_variant.{generator.detect_plan}")
        units = self._detection_units(cfds)
        with self._leased_tableaux(generator, relation_name, units):
            with self.backend.read_connection(snapshot=True):
                tuple_count = self.backend.row_count(relation_name)
                # the affected LHS-value groups depend on the (parent)
                # LHS alone, so one backend lookup serves every RHS
                # attribute of a merged CFD
                group_keys: Dict[int, List[Tuple[Any, ...]]] = {}
                for unit in units:
                    index, cfd, sub, tableau_name = unit
                    needs_keys = bool(
                        sub.lhs
                    ) and generator.wildcard_rhs_attributes(sub)
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
                            tableau_name,
                            restrict_tids=restrict,
                            restrict_keys=group_keys[index] if needs_keys else [],
                        )
                    )
        return self._report(relation_name, cfds, violations, tuple_count)

    # -- SQL-based path ------------------------------------------------------------

    def _sql_preamble(
        self, relation_name: str, cfds: Sequence[CFD]
    ) -> RelationSchema:
        """Shared entry of the backend-resident paths.

        Resets the SQL log and reads the schema through catalog ops — the
        queries run where the data lives and report assembly reads backend
        rows only, so the working store is never touched.  The row count
        is *not* read here: callers read it inside their read snapshot so
        the reported ``tuple_count`` is consistent with the violations
        even under a concurrent writer.
        """
        self.last_sql = []
        schema = self.backend.schema(relation_name)
        self._validate(relation_name, cfds, schema)
        return schema

    def _detection_units(
        self, cfds: Sequence[CFD]
    ) -> List[Tuple[int, CFD, CFD, str]]:
        """One ``(index, parent, sub-CFD, tableau name)`` per RHS attribute."""
        units: List[Tuple[int, CFD, CFD, str]] = []
        for index, cfd in enumerate(cfds):
            for rhs_attribute in cfd.rhs:
                sub = _sub_cfd(cfd, rhs_attribute)
                tableau_name = (
                    tableau_relation_name(sub, index) + f"_{sub.rhs[0]}"
                )
                units.append((index, cfd, sub, tableau_name))
        return units

    @contextmanager
    def _leased_tableaux(
        self,
        generator: DetectionSqlGenerator,
        relation_name: str,
        units: Sequence[Tuple[int, CFD, CFD, str]],
    ) -> Iterator[None]:
        """Hold tableau leases (and LHS indexes) for every detection unit.

        All writes the SQL path needs — index creation and tableau
        materialisation — happen here, *before* the caller opens its read
        snapshot, so the snapshot sees every tableau.  Leases are
        acquired in sorted tableau-name order: a thread only ever waits
        on names greater than every name it already holds, which rules
        out lease-wait cycles between concurrent detections.
        """
        for _, _, sub, _ in units:
            if sub.lhs:
                self.backend.ensure_index(relation_name, sub.lhs)
        acquired: List[str] = []
        try:
            for _, _, sub, tableau_name in sorted(
                units, key=lambda unit: unit[3]
            ):
                self._acquire_tableau(generator, tableau_name, sub)
                acquired.append(tableau_name)
            yield
        finally:
            for tableau_name in acquired:
                self._release_tableau(tableau_name)

    def _acquire_tableau(
        self, generator: DetectionSqlGenerator, tableau_name: str, cfd: CFD
    ) -> None:
        """Take one lease on ``tableau_name`` materialised for ``cfd``.

        The first lease claims the name (sweeping plans a previous
        occupant left behind) and materialises the tableau; later leases
        for the *same* CFD share that materialisation — the tableau's
        content is a pure function of the CFD, so sharing is safe and
        keeps concurrent detections of one CFD from re-writing each
        other's tableau mid-query.  A lease for a *different* CFD waits
        until the current occupant's leases drain, then rematerialises
        the name for itself.

        The materialisation is *cached*: when the last lease drains the
        tableau table stays in the backend, keyed by its owning CFD, so
        repeated detections over an unchanged CFD set are pure reads —
        no per-detect writer work to serialise concurrent serving on.
        """
        with self._tableau_cond:
            while True:
                entry = self._tableau_leases.get(tableau_name)
                if entry is None or (entry[0] == cfd and entry[1] == 0):
                    # unclaimed name, or a cached materialisation left by
                    # a previous detection of this same CFD
                    if entry is None:
                        generator.claim_tableau(tableau_name, cfd)
                        self.backend.add_relation(
                            tableau_to_relation(cfd, tableau_name), replace=True
                        )
                    self._tableau_leases[tableau_name] = [cfd, 1]
                    return
                if entry[0] == cfd:
                    entry[1] += 1
                    return
                if entry[1] == 0:
                    # cached for a different CFD and idle: take the name over
                    generator.claim_tableau(tableau_name, cfd)
                    self.backend.add_relation(
                        tableau_to_relation(cfd, tableau_name), replace=True
                    )
                    self._tableau_leases[tableau_name] = [cfd, 1]
                    return
                self._tableau_cond.wait()

    def _release_tableau(self, tableau_name: str) -> None:
        """Return one lease, leaving the materialisation cached.

        The entry survives at refcount zero: the tableau table and its
        compiled plans remain valid for the owning CFD, so the next
        detection of the same CFD skips the writer entirely.  A waiter
        for a different CFD is woken to take the idle name over
        (rematerialising it for its own CFD).
        """
        with self._tableau_cond:
            entry = self._tableau_leases[tableau_name]
            entry[1] -= 1
            if entry[1] == 0:
                self._tableau_cond.notify_all()

    def release_cached_tableaux(self) -> None:
        """Drop every cached tableau no detection currently holds a lease on.

        The serving cache (see :meth:`_acquire_tableau`) keeps tableau
        tables resident between detections; call this to return the
        backend to its pre-detection relation set — the facade does so on
        ``close()``.  Tableaux still leased by in-flight detections are
        left alone; they simply stay cached when those leases drain.  A
        native detector over a Database never caches any.
        """
        with self._tableau_cond:
            for tableau_name in list(self._tableau_leases):
                if self._tableau_leases[tableau_name][1] == 0:
                    del self._tableau_leases[tableau_name]
                    self.backend.drop_relation(tableau_name)

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
    ) -> None:
        for cfd in cfds:
            if cfd.relation != relation_name:
                raise DetectionError(
                    f"CFD {cfd.identifier} targets relation {cfd.relation!r}, "
                    f"not {relation_name!r}"
                )
            cfd.validate_against(schema.attribute_names)

    def _generator_for(
        self, relation_name: str, schema: RelationSchema
    ) -> DetectionSqlGenerator:
        """The cached per-relation generator (rebuilt on schema change).

        Keeping the generator across ``detect`` calls is what makes its
        prepared-plan cache effective: repeated detections over the same
        CFDs reuse the rendered ``Q_C``/``Q_V``/members statements.
        """
        requested = (
            self.detect_plan if self.detect_plan is not None else default_detect_plan()
        )
        with self._generators_lock:
            generator = self._generators.get(relation_name)
            if generator is None or generator.schema != schema:
                generator = DetectionSqlGenerator(
                    schema,
                    dialect=self.backend.dialect,
                    telemetry=self.telemetry,
                    detect_plan=requested,
                )
                self._generators[relation_name] = generator
            elif generator.requested_detect_plan != requested:
                # detect_plan flipped mid-session: re-resolve in place — the
                # variant-keyed plan cache guarantees no stale shape is served
                generator.set_detect_plan(requested)
            return generator

    def _detect_sql(
        self,
        generator: DetectionSqlGenerator,
        schema: RelationSchema,
        parent: CFD,
        cfd: CFD,
        tableau_name: str,
        restrict_tids: Optional[Sequence[int]] = None,
        restrict_keys: Optional[Sequence[Tuple[Any, ...]]] = None,
    ) -> List[Violation]:
        """Run one detection unit's queries and assemble its violations.

        Query-only: the caller holds a tableau lease for ``tableau_name``
        (see :meth:`_leased_tableaux`) and typically a read snapshot, so
        nothing here writes to the backend.
        """
        if restrict_tids is None:
            single_queries = generator.plan_single_queries(
                cfd, tableau_name, include_lhs=True
            )
            multi_queries = generator.plan_multi_queries(cfd, tableau_name)
            wanted: Optional[Set[int]] = None
        else:
            single_queries = generator.plan_delta_single(
                cfd, tableau_name, restrict_tids
            )
            multi_queries = generator.plan_delta_multi(
                cfd, tableau_name, cfd.rhs[0], list(restrict_keys or [])
            )
            wanted = set(restrict_tids)
        violations: List[Violation] = []
        violations.extend(
            self._assemble_singles(parent, cfd, schema, single_queries)
        )
        violations.extend(
            self._assemble_multis(
                generator, parent, cfd, schema, tableau_name, multi_queries, wanted
            )
        )
        return violations

    def _execute(self, query: SqlQuery) -> List[Dict[str, Any]]:
        self.last_sql.append(query.sql)
        if not self.telemetry.active:
            return self.backend.execute(query.sql, query.parameters)
        # announce the generator's statement kind so the instrumented
        # backend buckets the execution under it (q_c, delta_multi, ...)
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
            for row in self._execute(query):
                tid = row["tid"]
                # per-pattern specialized statements carry their pattern on
                # the query; the legacy tableau join carries it per row
                if query.pattern_index is not None:
                    pattern_index = query.pattern_index
                else:
                    pattern_index = int(row.get("pattern_id", 0))
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
        generator: DetectionSqlGenerator,
        parent: CFD,
        cfd: CFD,
        schema: RelationSchema,
        tableau_name: str,
        queries: Sequence[SqlQuery],
        wanted: Optional[Set[int]] = None,
    ) -> List[Violation]:
        rhs_attribute = cfd.rhs[0]
        # The query groups by (LHS values, pattern_id), so an LHS group
        # covered by several overlapping pattern tuples comes back once per
        # matching pattern.  Report each group exactly once, under its
        # lowest violating pattern index — the same rule the native and
        # incremental paths apply.  Keys stay in the backend's value
        # representation until the final decode, so the members plans bind
        # exactly what the engine compares against.
        grouped: Dict[Tuple[Any, ...], int] = {}
        members: Dict[Tuple[Any, ...], Set[int]] = {}
        key_columns = [LHS_COLUMN_PREFIX + attr for attr in cfd.lhs]
        if generator.one_pass_multi:
            # window family: the statements return member rows directly —
            # bucket them per group key; the member set is a property of
            # the key alone, so overlapping patterns just re-deliver it.
            # This is the serving hot loop (one iteration per member row),
            # so the group key is built from precomputed column names and
            # the bucket is fetched with a single dict probe.
            members_get = members.get
            for query in queries:
                pattern_index = query.pattern_index or 0
                for row in self._execute(query):
                    key = tuple([row[column] for column in key_columns])
                    bucket = members_get(key)
                    if bucket is None:
                        members[key] = bucket = set()
                        grouped[key] = pattern_index
                    elif pattern_index < grouped[key]:
                        grouped[key] = pattern_index
                    bucket.add(row["tid"])
        else:
            for query in queries:
                for row in self._execute(query):
                    lhs_values = tuple(row[attr] for attr in cfd.lhs)
                    pattern_index = int(row["pattern_id"])
                    if (
                        lhs_values not in grouped
                        or pattern_index < grouped[lhs_values]
                    ):
                        grouped[lhs_values] = pattern_index
            if not grouped:
                return []
            for plan in generator.covering_members_plans(
                cfd, tableau_name, rhs_attribute, list(grouped)
            ):
                for row in self._execute(plan):
                    key = tuple([row[column] for column in key_columns])
                    members.setdefault(key, set()).add(row["tid"])
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
