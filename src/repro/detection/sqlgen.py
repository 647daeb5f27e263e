"""Generation of SQL detection queries from CFDs.

Following the SQL-based technique of the paper's companion article (Fan et
al., TODS 2008), each CFD ``phi = (R: X -> A, Tp)`` is compiled into
queries over the data relation ``R``, one per pattern row of ``Tp``:

* ``Q_C`` (single-tuple violations, statement kind ``q_c_sargable``): for a
  pattern row whose RHS is a constant, the tuples that match the row's LHS
  but carry a different (or NULL) RHS value;
* ``Q_V`` (multi-tuple violations, statement kind ``q_window``): for a
  pattern row whose RHS is the wildcard ``_``, the tuples matching the
  row's LHS grouped by their LHS values, keeping the groups with more than
  one distinct RHS value — and returning those groups' member rows in the
  same statement, so no second round trip enumerates them.  SQLite
  rejects DISTINCT in window functions, so the one pass is a JOIN on the
  grouped ``HAVING`` subquery.

A constant LHS position renders as a parameter-bound equality
(``t.A = ?``) that rides the auto-built detection index — the CFD's LHS
followed by the RHS attribute, so group checks read the index alone; a
wildcard position only requires a non-NULL value.  Pattern constants
travel out-of-band as ``?`` parameters — SQL strings never embed data
values — and bind typed by their column (:meth:`CFD.typed_constant`, the
rule :meth:`CFD.coerced_to` applies), so every statement compares the
values SQLite stores, whatever the column's type: an INTEGER or FLOAT
constant seeks the index like a STRING one.  Pattern rows that render to
an identical statement are emitted once, labelled with the lowest pattern
index (:meth:`DetectionSqlGenerator.single_patterns` and
:meth:`~DetectionSqlGenerator.multi_patterns` pick those rows for every
``plan_*`` builder).

The trade-off against the paper's shape: joining ``R`` with a relational
encoding of ``Tp`` needs two statements per CFD however many pattern rows
it has, while the per-row form emits one statement per distinct pattern
row.  The per-row form was faster on every recorded size and shape, but
no test or workload has more than five pattern rows, so choosing between
the shapes again would first need a workload with a large tableau.

Restricted variants (the ``plan_delta_*`` builders) re-check only the
tuples a ``detect_for_tuples`` call names and the LHS-value groups they
belong to, and cost those tuples and groups, not the relation:

* the restricted ``Q_C`` reads the named tids by rowid (the data table is
  marked ``NOT INDEXED``, so a detection index on the constant LHS
  cannot pull the plan into a range over every matching entry);
* the restricted ``Q_V`` starts from the named tids too: a ``DISTINCT``
  subquery reads their LHS values by rowid (NULL-LHS tuples belong to no
  group), so the group keys never leave the backend.  A key violates
  when some member's RHS is greater than the group's minimum —
  ``EXISTS (... x.A > (SELECT MIN(m.A) ...))``, two seeks on the
  LHS+RHS index however large the group — and only the members of
  violating keys are read.  The pattern constants are tested on the key
  columns.  Both forms compare stored values, so "some member above the
  minimum" finds exactly the groups the full form's ``COUNT(DISTINCT
  t.A) > 1`` finds.

The group restriction of the tuple-source aggregates is a flat ``IN (?,
?, ...)`` list for a single-attribute LHS and a row-value semi-join over
a subquery — ``(t.X1, t.X2) IN (SELECT * FROM (VALUES (?, ?), ...))`` —
otherwise; SQLite (3.40) searches the index once per key for both, where
a bare ``IN (VALUES ...)`` of two or more keys is read as a filter over a
scan.  Every shape is one expression node however long, so chunking is
driven by the *parameter budget* alone (``max_parameters``, the backend's
:attr:`~repro.backends.base.StorageBackend.max_parameters`): each emitted
statement binds at most that many values, however wide the CFD's LHS is.

Two plan-quality mechanisms sit on top of the query builders:

* a *prepared-plan cache* — every built query is memoised per generator,
  keyed by (kind, CFD, RHS attribute or pattern, chunk shape), so the
  per-chunk statements the detector and the tuple sources re-issue are
  rendered once.  A statement depends only on the schema, the CFD and
  the chunk shape, and a generator is bound to one schema, so cached
  plans never need invalidating;
* a *covering members plan* (:meth:`covering_members_query`) — member
  enumeration for LHS groups: the group restriction already fixes the
  LHS values, and pattern-LHS applicability is a function of those values
  alone, so the query reduces to the restriction plus the non-NULL RHS
  guard.  Its predicates are plain equalities on the LHS attributes,
  which lets SQLite drive the probe straight off the auto-built detection
  index (``_tid`` rides along in every index entry).  The tuple sources
  use it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..backends.sqlite import SQLITE_PARAMETER_FLOOR
from ..core.cfd import CFD
from ..engine.types import RelationSchema
from ..errors import DetectionError
from ..obs.telemetry import NULL_TELEMETRY, Telemetry

#: alias used for the data relation in generated queries
DATA_ALIAS = "t"

#: alias of the distinct key list the restricted ``Q_V`` starts from; its
#: columns are named ``column1``, ``column2``, ... in ``cfd.lhs`` order
KEY_ALIAS = "k"

#: alias of the named tuples the restricted ``Q_V`` reads its keys from
SOURCE_ALIAS = "s"

#: column-alias prefix for the LHS values a ``Q_C`` carries so the caller
#: can assemble violation reports without touching the data store
LHS_COLUMN_PREFIX = "lhs_"

#: cap on OR-chain disjuncts in one statement.  SQLite caps the
#: expression-tree depth at 1000, so the applicability counts OR-ing one
#: conjunction per sub-CFD are chunked at least this finely.
MAX_OR_TERMS = 200


@dataclass(frozen=True)
class SqlQuery:
    """One generated query: SQL text plus its bound parameter values.

    ``parameters`` is empty for queries whose placeholders the caller
    binds at execution time (the ``*_query`` builders of the restricted
    statements; the ``*_plans`` helpers return them bound).
    ``rhs_attribute`` names the RHS attribute a ``Q_V`` query detects
    disagreements on (``None`` for the other query kinds).  ``kind`` is the
    statement-kind tag the telemetry layer buckets executions under
    (``q_c_sargable``, ``q_window``, ``covering_members``, ``row_fetch``,
    ...); detectors announce it to the instrumented backend via
    :meth:`~repro.obs.telemetry.Telemetry.tag_statements`.
    ``pattern_index`` is set on the per-pattern statements, which carry no
    pattern column — the pattern is implicit in the statement.
    """

    sql: str
    parameters: Tuple[Any, ...] = ()
    rhs_attribute: Optional[str] = None
    kind: Optional[str] = None
    pattern_index: Optional[int] = None

    def __str__(self) -> str:
        return self.sql

    def __contains__(self, fragment: str) -> bool:
        return fragment in self.sql


class DetectionSqlGenerator:
    """Compiles CFDs into detection SQL against a given data relation schema.

    ``max_parameters`` is the number of ``?`` values one statement may
    bind (the backend's probed limit; the portable 999 floor by default).
    """

    def __init__(
        self,
        schema: RelationSchema,
        max_parameters: int = SQLITE_PARAMETER_FLOOR,
        telemetry: Optional["Telemetry"] = None,
    ):
        self.schema = schema
        self.max_parameters = max_parameters
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: prepared-plan cache: (kind, cfd, ..., chunk shape) -> query.
        #: SqlQuery is frozen, so cached plans are safe to share.
        self._plan_cache: Dict[Tuple[Any, ...], Optional[SqlQuery]] = {}
        #: guards the cache and its hit/miss counters: serving-layer
        #: worker threads share one generator per relation, and a lost
        #: update on the dict would double-count or drop a plan
        self._cache_lock = threading.Lock()
        #: cache telemetry (benchmarks and tests read these)
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    # -- prepared-plan cache -----------------------------------------------------

    def _cached_plan(self, key: Tuple[Any, ...], build) -> Optional[SqlQuery]:
        """Memoise one built query under ``key`` (None results included)."""
        with self._cache_lock:
            if key in self._plan_cache:
                self.plan_cache_hits += 1
                self.telemetry.inc("plan_cache.hits")
                return self._plan_cache[key]
            self.plan_cache_misses += 1
            self.telemetry.inc("plan_cache.misses")
            plan = build()
            self._plan_cache[key] = plan
            return plan

    # -- helpers ----------------------------------------------------------------

    def wildcard_rhs_attributes(self, cfd: CFD) -> List[str]:
        """RHS attributes carrying the wildcard in at least one pattern."""
        return [
            attr
            for attr in cfd.rhs
            if any(attr in matcher.wildcard_rhs for matcher in cfd.matchers)
        ]

    @staticmethod
    def _key_values(width: int, group_count: int) -> str:
        """``VALUES (?, ?), ...``: ``group_count`` caller-bound keys."""
        value_row = "(" + ", ".join("?" for _ in range(width)) + ")"
        return "VALUES " + ", ".join(value_row for _ in range(group_count))

    def _group_restriction(self, cfd: CFD, group_count: int) -> str:
        """The affected-group restriction over ``group_count`` LHS-value groups.

        A flat ``IN`` list for a single-attribute LHS, a row-value
        semi-join over a subquery — ``(t.X1, t.X2) IN (SELECT * FROM
        (VALUES (?, ?), ...))`` — otherwise.  SQLite (3.40) searches the
        index once per key for both; a bare ``IN (VALUES ...)`` of two or
        more keys would be read as a filter over a scan of the index.  All
        placeholders are caller-bound (the groups' LHS values flattened
        in ``cfd.lhs`` order).  NULL never appears among the bound values:
        a tuple with a NULL LHS cell belongs to no group on any detection
        path.
        """
        lhs = cfd.lhs
        if len(lhs) == 1:
            placeholders = ", ".join("?" for _ in range(group_count))
            return f"{DATA_ALIAS}.{lhs[0]} IN ({placeholders})"
        row = ", ".join(f"{DATA_ALIAS}.{attr}" for attr in lhs)
        values = self._key_values(len(lhs), group_count)
        return f"({row}) IN (SELECT * FROM ({values}))"

    # -- detection queries ---------------------------------------------------------

    def single_patterns(self, cfd: CFD) -> Tuple[int, ...]:
        """The constant-RHS pattern rows of ``cfd``, one per distinct ``Q_C``.

        Rows whose statements render identically (a wildcard-only LHS with
        the same expected RHS, or rows made identical by the sub-CFD
        restriction) would return identical rows, so only the lowest
        index is kept — the one every detection path reports.  The full
        statement decides; the restricted ``Q_C`` adds the same tid
        restriction to every row's.
        """
        return self._distinct_patterns(
            (
                index
                for index, matcher in enumerate(cfd.matchers)
                if matcher.rhs_constants
            ),
            lambda index: self._single_query(cfd, index),
        )

    def multi_patterns(self, cfd: CFD, rhs_attribute: str) -> Tuple[int, ...]:
        """The rows with the wildcard on ``rhs_attribute``, one per distinct ``Q_V``.

        Deduplicated like :meth:`single_patterns` by the full statement:
        the full and the restricted ``Q_V`` both depend on a row only
        through its constant LHS positions.  Empty for an empty LHS,
        which forms no groups.
        """
        if not cfd.lhs:
            return ()
        return self._distinct_patterns(
            (
                index
                for index, matcher in enumerate(cfd.matchers)
                if rhs_attribute in matcher.wildcard_rhs
            ),
            lambda index: self._multi_query(cfd, rhs_attribute, index),
        )

    @staticmethod
    def _distinct_patterns(
        indices: Iterable[int], statement: Callable[[int], SqlQuery]
    ) -> Tuple[int, ...]:
        """The first of ``indices`` per distinct ``statement(index)``."""
        kept: List[int] = []
        seen = set()
        for index in indices:
            query = statement(index)
            signature = (query.sql, query.parameters)
            if signature not in seen:
                seen.add(signature)
                kept.append(index)
        return tuple(kept)

    def _pattern_lhs_conditions(
        self, cfd: CFD, pattern_index: int, params: List[Any]
    ) -> List[str]:
        """Per-pattern LHS conditions with sargable constant equalities.

        A constant position renders as a bare ``t.X = ?`` binding the
        typed constant, which the auto-built detection index answers
        directly (the trick the covering members plan proved).  Equality
        implies non-NULL, so the explicit guard is kept only for wildcard
        positions, which any non-NULL value matches.
        """
        pattern = cfd.patterns[pattern_index]
        conditions: List[str] = []
        for attribute in cfd.lhs:
            value = pattern.value(attribute)
            if value.is_constant:
                conditions.append(
                    f"{DATA_ALIAS}.{attribute} = "
                    f"{self._bind_constant(cfd, attribute, value.constant, params)}"
                )
            else:
                conditions.append(f"{DATA_ALIAS}.{attribute} IS NOT NULL")
        return conditions

    def _bind_constant(
        self, cfd: CFD, attribute: str, constant: Any, params: List[Any]
    ) -> str:
        """``?``, binding ``constant`` typed by its column (:meth:`CFD.typed_constant`)."""
        params.append(cfd.typed_constant(self.schema, attribute, constant))
        return "?"

    def _sargable_single_for(
        self,
        cfd: CFD,
        pattern_index: int,
        delta_tid_count: Optional[int] = None,
    ) -> SqlQuery:
        """Per-pattern sargable ``Q_C``: constants bound, LHS values carried.

        The pattern is implicit in the statement (``pattern_index`` rides
        on the returned :class:`SqlQuery`), so the select list is just
        ``tid`` plus the ``lhs_*`` carry columns.  The delta form appends
        the caller-bound tid restriction after the constant binds and
        marks the table ``NOT INDEXED``: each tid is then one rowid
        lookup, where an index on a constant LHS position would make
        SQLite read every entry matching the constant.
        """
        pattern = cfd.patterns[pattern_index]
        rhs = cfd.rhs_pattern(pattern)
        params: List[Any] = []
        conditions = self._pattern_lhs_conditions(cfd, pattern_index, params)
        rhs_parts: List[str] = []
        for attribute in cfd.rhs:
            value = rhs.value(attribute)
            if not value.is_constant:
                continue
            column = f"{DATA_ALIAS}.{attribute}"
            expected = self._bind_constant(cfd, attribute, value.constant, params)
            rhs_parts.append(f"({column} <> {expected} OR {column} IS NULL)")
        conditions.append("(" + " OR ".join(rhs_parts) + ")")
        source = f"{cfd.relation} {DATA_ALIAS}"
        if delta_tid_count is not None:
            placeholders = ", ".join("?" for _ in range(delta_tid_count))
            conditions.append(f"{DATA_ALIAS}._tid IN ({placeholders})")
            source += " NOT INDEXED"
        select_columns = self._member_columns(cfd)
        sql = (
            f"SELECT {', '.join(select_columns)}\n"
            f"FROM {source}\n"
            f"WHERE {' AND '.join(conditions)}"
        )
        return SqlQuery(
            sql, tuple(params), kind="q_c_sargable", pattern_index=pattern_index
        )

    def _window_multi_for(
        self, cfd: CFD, rhs_attribute: str, pattern_index: int
    ) -> SqlQuery:
        """Per-pattern one-pass ``Q_V``: violating groups *and* members.

        Rows come back as ``(tid, lhs_*)`` — one per member of a violating
        group — so no detect→covering-members round trip is needed.
        SQLite rejects DISTINCT in window functions, so the statement is
        the JOIN-on-aggregate rewrite: the grouped ``HAVING`` subquery
        finds the violating keys and the self-join pulls their members
        (LHS equality to a violating key implies the pattern's constants
        and non-NULL LHS by construction — the covering-members argument).
        """
        params: List[Any] = []
        inner_conditions = self._pattern_lhs_conditions(cfd, pattern_index, params)
        inner_conditions.append(f"{DATA_ALIAS}.{rhs_attribute} IS NOT NULL")
        distinct = f"COUNT(DISTINCT {DATA_ALIAS}.{rhs_attribute})"
        member_columns = self._member_columns(cfd)
        group_select = [f"{DATA_ALIAS}.{attr} AS {attr}" for attr in cfd.lhs]
        group_columns = [f"{DATA_ALIAS}.{attr}" for attr in cfd.lhs]
        join_on = " AND ".join(
            f"{DATA_ALIAS}.{attr} = g.{attr}" for attr in cfd.lhs
        )
        sql = (
            f"SELECT {', '.join(member_columns)}\n"
            f"FROM {cfd.relation} {DATA_ALIAS} JOIN (\n"
            f"SELECT {', '.join(group_select)}\n"
            f"FROM {cfd.relation} {DATA_ALIAS}\n"
            f"WHERE {' AND '.join(inner_conditions)}\n"
            f"GROUP BY {', '.join(group_columns)}\n"
            f"HAVING {distinct} > 1\n"
            f") g ON {join_on}\n"
            f"WHERE {DATA_ALIAS}.{rhs_attribute} IS NOT NULL"
        )
        return SqlQuery(
            sql,
            tuple(params),
            rhs_attribute=rhs_attribute,
            kind="q_window",
            pattern_index=pattern_index,
        )

    def _window_multi_restricted(
        self, cfd: CFD, rhs_attribute: str, pattern_index: int, tid_count: int
    ) -> SqlQuery:
        """Per-pattern ``Q_V`` over the groups of ``tid_count`` caller-bound tids.

        The statement starts from the distinct LHS values of the named
        tuples, read by rowid (the data table is marked ``NOT INDEXED``;
        padding repeats a tid, and a tuple with a NULL LHS cell belongs to
        no group), and ``CROSS JOIN`` keeps that key list SQLite's outer
        loop.  It reaches the data only through the LHS+RHS index: a key
        whose values fail the pattern's constants is dropped before any
        lookup; a key violates when some member's RHS is greater than the
        group's minimum RHS (two seeks); and only a violating key's
        members are read.  Rows are ``(tid, lhs_*)`` like the full form's.
        A key holds the LHS values as the backend stores them, so the
        typed constants compare with the key columns exactly as the full
        form compares them with the data.

        Binding order: the tids, then the pattern constants the returned
        query carries.
        """
        pattern = cfd.patterns[pattern_index]
        params: List[Any] = []
        keys = [f"{KEY_ALIAS}.column{number}" for number in range(1, len(cfd.lhs) + 1)]
        conditions = []
        for attribute, key in zip(cfd.lhs, keys):
            value = pattern.value(attribute)
            if value.is_constant:
                conditions.append(
                    f"{key} = {self._bind_constant(cfd, attribute, value.constant, params)}"
                )

        def on_key(alias: str) -> str:
            return " AND ".join(
                f"{alias}.{attribute} = {key}" for attribute, key in zip(cfd.lhs, keys)
            )

        minimum = (
            f"SELECT MIN(m.{rhs_attribute}) FROM {cfd.relation} m WHERE {on_key('m')}"
        )
        conditions.append(
            f"EXISTS (SELECT 1 FROM {cfd.relation} x WHERE {on_key('x')} "
            f"AND x.{rhs_attribute} > ({minimum}))"
        )
        conditions.append(f"{DATA_ALIAS}.{rhs_attribute} IS NOT NULL")
        key_columns = ", ".join(
            f"{SOURCE_ALIAS}.{attribute} AS column{number}"
            for number, attribute in enumerate(cfd.lhs, start=1)
        )
        placeholders = ", ".join("?" for _ in range(tid_count))
        key_conditions = [f"{SOURCE_ALIAS}._tid IN ({placeholders})"] + [
            f"{SOURCE_ALIAS}.{attribute} IS NOT NULL" for attribute in cfd.lhs
        ]
        sql = (
            f"SELECT {', '.join(self._member_columns(cfd))}\n"
            f"FROM (SELECT DISTINCT {key_columns}\n"
            f"FROM {cfd.relation} {SOURCE_ALIAS} NOT INDEXED\n"
            f"WHERE {' AND '.join(key_conditions)}) {KEY_ALIAS}\n"
            f"CROSS JOIN {cfd.relation} {DATA_ALIAS} ON {on_key(DATA_ALIAS)}\n"
            f"WHERE {' AND '.join(conditions)}"
        )
        return SqlQuery(
            sql,
            tuple(params),
            rhs_attribute=rhs_attribute,
            kind="q_window",
            pattern_index=pattern_index,
        )

    @staticmethod
    def _member_columns(cfd: CFD) -> List[str]:
        """``t._tid AS tid`` plus the ``lhs_*`` carry columns."""
        return [f"{DATA_ALIAS}._tid AS tid"] + [
            f"{DATA_ALIAS}.{attr} AS {LHS_COLUMN_PREFIX}{attr}" for attr in cfd.lhs
        ]

    def plan_single_queries(self, cfd: CFD) -> List[SqlQuery]:
        """The ``Q_C`` statements of ``cfd``: one per :meth:`single_patterns` row."""
        return [self._single_query(cfd, index) for index in self.single_patterns(cfd)]

    def plan_multi_queries(self, cfd: CFD) -> List[SqlQuery]:
        """The one-pass ``Q_V`` statements of ``cfd``.

        One statement per (wildcard RHS attribute × :meth:`multi_patterns`
        row), so wildcard-only patterns keep a single statement per RHS
        attribute.  Empty when the CFD has no wildcard RHS position or an
        empty LHS.
        """
        queries: List[SqlQuery] = []
        for rhs_attribute in self.wildcard_rhs_attributes(cfd):
            queries.extend(
                self._multi_query(cfd, rhs_attribute, index)
                for index in self.multi_patterns(cfd, rhs_attribute)
            )
        return queries

    def _single_query(self, cfd: CFD, pattern_index: int) -> SqlQuery:
        """The cached ``Q_C`` of one pattern row."""
        return self._cached_plan(
            ("single_sarg", cfd, pattern_index),
            lambda: self._sargable_single_for(cfd, pattern_index),
        )

    def _multi_query(self, cfd: CFD, rhs_attribute: str, pattern_index: int) -> SqlQuery:
        """The cached one-pass ``Q_V`` of one pattern row."""
        return self._cached_plan(
            ("multi_window", cfd, rhs_attribute, pattern_index),
            lambda: self._window_multi_for(cfd, rhs_attribute, pattern_index),
        )

    def plan_delta_single(self, cfd: CFD, tids: Sequence[int]) -> List[SqlQuery]:
        """Fully-bound ``Q_C`` statements restricted to the tuples ``tids``.

        Each :meth:`single_patterns` row gets the tid restriction, chunked
        under the parameter budget; empty when ``tids`` is empty or no
        pattern has a constant RHS.
        """
        if not tids:
            return []
        plans: List[SqlQuery] = []
        # a row's statement binds the same constants whatever its tid
        # count, so the one-tid statement tells the chunking how many
        for index in self.single_patterns(cfd):

            def query_for(count: int, index: int = index) -> SqlQuery:
                return self._cached_plan(
                    ("single_sarg_delta", cfd, index, count),
                    lambda: self._sargable_single_for(cfd, index, delta_tid_count=count),
                )

            plans.extend(
                self._bound_chunks(
                    query_for,
                    tids,
                    base_params=len(query_for(1).parameters),
                    restriction_last=True,
                )
            )
        return plans

    def plan_delta_multi(
        self,
        cfd: CFD,
        rhs_attribute: str,
        tids: Sequence[int],
    ) -> List[SqlQuery]:
        """Fully-bound one-pass ``Q_V`` statements over the groups of ``tids``.

        Each :meth:`multi_patterns` row starts from the named tuples' LHS
        values (:meth:`_window_multi_restricted`), so the member rows
        cover exactly the violating groups those tuples belong to.
        Chunking follows the parameter budget, so a group whose tuples
        fall in two chunks comes back from both statements; callers merge
        groups by key.  Empty when ``tids`` is empty or the CFD has no
        LHS.
        """
        if not tids:
            return []
        plans: List[SqlQuery] = []
        for index in self.multi_patterns(cfd, rhs_attribute):

            def query_for(count: int, index: int = index) -> SqlQuery:
                return self._cached_plan(
                    ("multi_window_delta", cfd, rhs_attribute, index, count),
                    lambda: self._window_multi_restricted(
                        cfd, rhs_attribute, index, count
                    ),
                )

            plans.extend(
                self._bound_chunks(
                    query_for, tids, base_params=len(query_for(1).parameters)
                )
            )
        return plans

    def covering_members_query(
        self,
        cfd: CFD,
        rhs_attribute: str,
        group_count: int,
    ) -> SqlQuery:
        """Index-only member enumeration for LHS groups.

        A group key carries no NULLs (the grouping queries guard every LHS
        attribute with ``IS NOT NULL``), and whether a pattern's LHS
        constants match is a function of the LHS values alone — so every
        tuple whose LHS equals a violating key is applicable by
        construction.  Membership reduces to the group restriction plus
        the non-NULL RHS guard, with plain (typed, parameter-bound)
        equalities on the LHS attributes that SQLite answers straight off
        the auto-built detection index, one search per requested key (see
        :meth:`_group_restriction`): ``_tid`` travels in every index entry
        and the selected columns are exactly ``_tid`` + LHS.  The pattern
        is irrelevant, so one enumeration covers every pattern.

        All placeholders are caller-bound (the groups' LHS values
        flattened with :meth:`flatten_group_keys`).
        """
        if not cfd.lhs:
            raise ValueError("the covering members query needs a non-empty LHS")
        if group_count < 1:
            raise ValueError("group_count must be at least 1")

        def build() -> SqlQuery:
            conditions = [
                self._group_restriction(cfd, group_count),
                f"{DATA_ALIAS}.{rhs_attribute} IS NOT NULL",
            ]
            select_columns = self._member_columns(cfd)
            sql = (
                f"SELECT {', '.join(select_columns)}\n"
                f"FROM {cfd.relation} {DATA_ALIAS}\n"
                f"WHERE {' AND '.join(conditions)}"
            )
            return SqlQuery(
                sql, (), rhs_attribute=rhs_attribute, kind="covering_members"
            )

        return self._cached_plan(
            ("covering", cfd, rhs_attribute, group_count), build
        )

    # -- repair-source aggregates ---------------------------------------------------

    def value_freq_query(self, attribute: str) -> SqlQuery:
        """Frequency histogram of one column's non-NULL values.

        The backend-resident repair source uses this to replace the
        repairer's ``_column_frequencies`` scan: one ``GROUP BY`` aggregate
        per attribute, returning ``(value, freq, first_tid)`` rows.
        ``first_tid`` (``MIN(_tid)``) lets the caller order ties exactly
        the way the native ``Counter`` does — first encounter over the
        sorted-tid row iteration — so candidate ranking stays
        oracle-identical.  The plan binds nothing.
        """
        if attribute not in self.schema.attribute_names:
            raise DetectionError(
                f"unknown attribute {attribute!r} in relation {self.schema.name!r}"
            )

        def build() -> SqlQuery:
            column = f"{DATA_ALIAS}.{attribute}"
            sql = (
                f"SELECT {column} AS value, COUNT(*) AS freq, "
                f"MIN({DATA_ALIAS}._tid) AS first_tid\n"
                f"FROM {self.schema.name} {DATA_ALIAS}\n"
                f"WHERE {column} IS NOT NULL\n"
                f"GROUP BY {column}"
            )
            return SqlQuery(sql, kind="value_freq")

        return self._cached_plan(("value_freq", attribute), build)

    def group_stats_query(
        self, cfd: CFD, rhs_attribute: str, group_count: int
    ) -> SqlQuery:
        """Aggregate membership statistics for ``group_count`` LHS groups.

        One row per LHS group that has at least one member — LHS matching
        the restriction, RHS non-NULL — carrying ``member_count`` and the
        ``distinct_rhs`` count of stored RHS values, the count ``Q_V``
        tests.
        The backend-resident repair source runs this as a cheap pre-filter
        before enumerating members: keys that come back empty (typically
        fresh-value keys no stored tuple carries) never pay a member
        enumeration, and keys whose members are all fetched already can be
        recognised by count alone.  Like :meth:`covering_members_query`
        the predicate is sargable (plain LHS equalities + the RHS guard)
        and all placeholders are caller-bound (:meth:`flatten_group_keys`).
        """
        if not cfd.lhs:
            raise ValueError("the group-stats query needs a non-empty LHS")
        if group_count < 1:
            raise ValueError("group_count must be at least 1")

        def build() -> SqlQuery:
            conditions = [
                self._group_restriction(cfd, group_count),
                f"{DATA_ALIAS}.{rhs_attribute} IS NOT NULL",
            ]
            select_columns = [
                f"{DATA_ALIAS}.{attr} AS {LHS_COLUMN_PREFIX}{attr}" for attr in cfd.lhs
            ]
            select_columns.append("COUNT(*) AS member_count")
            select_columns.append(
                f"COUNT(DISTINCT {DATA_ALIAS}.{rhs_attribute}) AS distinct_rhs"
            )
            group_columns = [f"{DATA_ALIAS}.{attr}" for attr in cfd.lhs]
            sql = (
                f"SELECT {', '.join(select_columns)}\n"
                f"FROM {cfd.relation} {DATA_ALIAS}\n"
                f"WHERE {' AND '.join(conditions)}\n"
                f"GROUP BY {', '.join(group_columns)}"
            )
            return SqlQuery(sql, (), rhs_attribute=rhs_attribute, kind="group_stats")

        return self._cached_plan(
            ("group_stats", cfd, rhs_attribute, group_count), build
        )

    def row_fetch_query(self, tid_count: int) -> SqlQuery:
        """Full rows of ``tid_count`` tuples, as ``(tid, <attributes...>)``.

        The backend-resident repair source materialises its partial working
        relation through this plan: only the violating tuples (and later
        the members of groups a repair step touched) ever cross the backend
        boundary.  A flat tid ``IN`` list, caller-bound.
        """
        if tid_count < 1:
            raise ValueError("tid_count must be at least 1")

        def build() -> SqlQuery:
            placeholders = ", ".join("?" for _ in range(tid_count))
            select_columns = [f"{DATA_ALIAS}._tid AS tid"] + [
                f"{DATA_ALIAS}.{attr} AS {attr}"
                for attr in self.schema.attribute_names
            ]
            sql = (
                f"SELECT {', '.join(select_columns)}\n"
                f"FROM {self.schema.name} {DATA_ALIAS}\n"
                f"WHERE {DATA_ALIAS}._tid IN ({placeholders})"
            )
            return SqlQuery(sql, kind="row_fetch")

        return self._cached_plan(("row_fetch", tid_count), build)

    # -- tuple-source aggregates (majority_value / attr_freq / page_fetch) ----------

    def majority_value_query(
        self, cfd: CFD, rhs_attribute: str, group_count: int
    ) -> SqlQuery:
        """Per-LHS-group RHS value histogram for ``group_count`` groups.

        One row per (group, RHS value) pair — ``(lhs_*, value, freq)`` —
        including the NULL bucket (the explorer's drill-down shows it;
        agreeing-majority consumers drop it client-side, mirroring the
        detection semantics where a NULL RHS participates in no
        disagreement).  This is the aggregate that lets the repair closure
        and the auditor answer "which value does this group's backend
        majority agree on?" without enumerating members.  Sargable like
        :meth:`group_stats_query`; all placeholders caller-bound
        (:meth:`flatten_group_keys`).
        """
        if not cfd.lhs:
            raise ValueError("the majority-value query needs a non-empty LHS")
        if group_count < 1:
            raise ValueError("group_count must be at least 1")

        def build() -> SqlQuery:
            conditions = [self._group_restriction(cfd, group_count)]
            select_columns = [
                f"{DATA_ALIAS}.{attr} AS {LHS_COLUMN_PREFIX}{attr}" for attr in cfd.lhs
            ]
            select_columns.append(f"{DATA_ALIAS}.{rhs_attribute} AS value")
            select_columns.append("COUNT(*) AS freq")
            group_columns = [f"{DATA_ALIAS}.{attr}" for attr in cfd.lhs]
            group_columns.append(f"{DATA_ALIAS}.{rhs_attribute}")
            sql = (
                f"SELECT {', '.join(select_columns)}\n"
                f"FROM {cfd.relation} {DATA_ALIAS}\n"
                f"WHERE {' AND '.join(conditions)}\n"
                f"GROUP BY {', '.join(group_columns)}"
            )
            return SqlQuery(
                sql, (), rhs_attribute=rhs_attribute, kind="majority_value"
            )

        return self._cached_plan(
            ("majority_value", cfd, rhs_attribute, group_count), build
        )

    def attr_freq_query(
        self, cfd: CFD, pattern_index: int, after: bool = False
    ) -> SqlQuery:
        """A keyset page of the LHS-value histogram over one pattern's applicable tuples.

        One row per LHS-value group with at least one applicable member —
        ``(lhs_*, freq)`` — where applicability is the pattern's sargable
        LHS conditions (constants bound, wildcards guarded non-NULL).  The
        resident explorer lists its clean groups from this instead of
        scanning the relation; the resident auditor's applicability counts
        share the statement kind.

        Groups come in key order (``ORDER BY`` the LHS) under a
        caller-bound ``LIMIT ?`` (``-1`` is no limit); with ``after``,
        only the groups whose key sorts after a caller-bound key —
        ``(t.A, t.B) > (?, ?)``, or bare ``t.A > ?`` for a one-attribute
        LHS.  Group keys hold no NULL, so the comparison is total, and the
        LHS index answers the page without sorting.  Binding order: the
        pattern's constants (``parameters``), the after key in
        ``cfd.lhs`` order, the limit.
        """
        if not cfd.lhs:
            raise ValueError("the attr-freq query needs a non-empty LHS")

        def build() -> SqlQuery:
            params: List[Any] = []
            conditions = self._pattern_lhs_conditions(cfd, pattern_index, params)
            key_columns = [f"{DATA_ALIAS}.{attr}" for attr in cfd.lhs]
            if after:
                if len(key_columns) == 1:
                    conditions.append(f"{key_columns[0]} > ?")
                else:
                    conditions.append(
                        f"({', '.join(key_columns)}) > "
                        f"({', '.join('?' for _ in key_columns)})"
                    )
            select_columns = [
                f"{DATA_ALIAS}.{attr} AS {LHS_COLUMN_PREFIX}{attr}" for attr in cfd.lhs
            ]
            select_columns.append("COUNT(*) AS freq")
            sql = (
                f"SELECT {', '.join(select_columns)}\n"
                f"FROM {cfd.relation} {DATA_ALIAS}\n"
                f"WHERE {' AND '.join(conditions)}\n"
                f"GROUP BY {', '.join(key_columns)}\n"
                f"ORDER BY {', '.join(key_columns)}\n"
                f"LIMIT ?"
            )
            return SqlQuery(
                sql, tuple(params), kind="attr_freq", pattern_index=pattern_index
            )

        return self._cached_plan(("attr_freq", cfd, pattern_index, after), build)

    def applicable_count_query(self, subs: Tuple[CFD, ...]) -> SqlQuery:
        """Count of tuples some normalised sub-CFD's pattern applies to.

        ``subs`` are single-pattern sub-CFDs (:meth:`CFD.normalize`); the
        predicate ORs their sargable LHS conditions, and the OR never
        duplicates a tuple, so a plain ``COUNT(*)`` is exact within one
        statement.  The resident auditor's VERIFIED counting runs on this —
        the clean side of the classification needs only *how many* stored
        tuples a constant-RHS pattern covers, never which ones.  Chunking
        across statements loses the cross-chunk de-duplication; use
        :meth:`applicable_sub_chunks` and fall back to
        :meth:`applicable_tids_query` when the subs do not fit one
        statement.
        """
        if not subs:
            raise ValueError("the applicable-count query needs at least one sub-CFD")

        def build() -> SqlQuery:
            return self._applicable_query(subs, count_only=True)

        return self._cached_plan(
            ("applicable_count", subs), build
        )

    def applicable_tids_query(self, subs: Tuple[CFD, ...]) -> SqlQuery:
        """Tids of the tuples some sub-CFD's pattern applies to.

        The multi-chunk fallback of :meth:`applicable_count_query`: when
        the subs exceed one statement's OR/parameter budget, the caller
        runs this per chunk and unions the tids client-side.
        """
        if not subs:
            raise ValueError("the applicable-tids query needs at least one sub-CFD")

        def build() -> SqlQuery:
            return self._applicable_query(subs, count_only=False)

        return self._cached_plan(
            ("applicable_tids", subs), build
        )

    def _applicable_query(self, subs: Tuple[CFD, ...], count_only: bool) -> SqlQuery:
        params: List[Any] = []
        disjuncts: List[str] = []
        for sub in subs:
            conditions = self._pattern_lhs_conditions(sub, 0, params)
            disjuncts.append("(" + " AND ".join(conditions) + ")")
        where = " OR ".join(disjuncts)
        if count_only:
            select = "COUNT(*) AS freq"
        else:
            select = f"{DATA_ALIAS}._tid AS tid"
        sql = (
            f"SELECT {select}\n"
            f"FROM {self.schema.name} {DATA_ALIAS}\n"
            f"WHERE {where}"
        )
        return SqlQuery(sql, tuple(params), kind="attr_freq")

    def applicable_sub_chunks(
        self, subs: Sequence[CFD]
    ) -> List[Tuple[CFD, ...]]:
        """Greedy chunking of sub-CFDs under the OR/parameter budgets.

        Each chunk fits one applicable-count/tids statement: at most
        :data:`MAX_OR_TERMS` disjuncts and the parameter budget's worth of
        bound pattern constants.
        """
        chunks: List[Tuple[CFD, ...]] = []
        current: List[CFD] = []
        current_params = 0
        budget = self.max_parameters
        for sub in subs:
            pattern = sub.patterns[0]
            sub_params = sum(
                1 for attr in sub.lhs if pattern.value(attr).is_constant
            )
            over_params = current_params + sub_params > budget
            over_terms = len(current) >= MAX_OR_TERMS
            if current and (over_params or over_terms):
                chunks.append(tuple(current))
                current, current_params = [], 0
            current.append(sub)
            current_params += sub_params
        if current:
            chunks.append(tuple(current))
        return chunks

    def page_fetch_query(
        self,
        cfd: Optional[CFD] = None,
        rhs_attribute: Optional[str] = None,
        rhs_filter: Optional[str] = None,
        page_size: int = 50,
    ) -> SqlQuery:
        """Keyset-paged full-row scan: ``(tid, <attributes...>)``.

        Pages ride the primary key — ``_tid > ?`` plus ``ORDER BY _tid``
        and an inlined ``LIMIT`` — so each page is O(page) however deep the
        caller has navigated.  ``cfd`` restricts the scan to one LHS group
        (:meth:`_group_restriction` over a single key); ``rhs_filter``
        narrows further to one RHS value (``"eq"``, binding the value) or
        to the NULL bucket (``"null"``).  Binding order: the group key
        flattened with :meth:`flatten_group_keys`, then the RHS value for
        the ``"eq"`` filter, then the after-tid cursor.  Without ``cfd``
        the scan is unrestricted, as a :meth:`TupleSource.page` naming no
        group asks.
        """
        if page_size < 1:
            raise ValueError("page_size must be at least 1")
        if rhs_filter not in (None, "eq", "null"):
            raise ValueError(f"unknown rhs_filter {rhs_filter!r}")
        if rhs_filter is not None and rhs_attribute is None:
            raise ValueError("rhs_filter needs an rhs_attribute")

        def build() -> SqlQuery:
            conditions: List[str] = []
            if cfd is not None:
                conditions.append(self._group_restriction(cfd, 1))
            if rhs_filter == "eq":
                conditions.append(f"{DATA_ALIAS}.{rhs_attribute} = ?")
            elif rhs_filter == "null":
                conditions.append(f"{DATA_ALIAS}.{rhs_attribute} IS NULL")
            conditions.append(f"{DATA_ALIAS}._tid > ?")
            select_columns = [f"{DATA_ALIAS}._tid AS tid"] + [
                f"{DATA_ALIAS}.{attr} AS {attr}"
                for attr in self.schema.attribute_names
            ]
            sql = (
                f"SELECT {', '.join(select_columns)}\n"
                f"FROM {self.schema.name} {DATA_ALIAS}\n"
                f"WHERE {' AND '.join(conditions)}\n"
                f"ORDER BY {DATA_ALIAS}._tid\n"
                f"LIMIT {page_size}"
            )
            return SqlQuery(sql, kind="page_fetch")

        return self._cached_plan(
            ("page_fetch", cfd, rhs_attribute, rhs_filter, page_size), build
        )

    # -- budget-chunked plans ------------------------------------------------------

    def _chunk_size(self, base_params: int, per_item: int) -> int:
        """Items one restricted statement may carry under the parameter budget.

        The budget reserves ``base_params`` slots for the generator-bound
        placeholders of the query body; a budget too small to fit even one
        item raises (emitting a statement that is known to blow the
        engine's variable cap would only defer the failure to an opaque
        execution error).
        """
        budget = self.max_parameters - base_params
        per_chunk = budget // max(1, per_item)
        if per_chunk < 1:
            raise DetectionError(
                f"the parameter budget ({self.max_parameters}) cannot fit one "
                f"delta item: the query body binds {base_params} values and "
                f"each item needs {per_item} more"
            )
        return per_chunk

    def _padded(self, chunk: Sequence[Any], cap: int) -> List[Any]:
        """Pad a restriction chunk to a power-of-two length (up to ``cap``).

        Every restriction shape is a set (``IN`` lists, row-value
        semi-joins), so repeating the last item changes nothing
        semantically, not even the rows returned — but it quantises the per-statement item count, which
        bounds the prepared-plan cache to O(log budget) entries per (kind,
        CFD) instead of one entry per distinct restriction size, and lets
        the backend's own statement cache hit on the recurring shapes.
        """
        target = 1
        while target < len(chunk):
            target <<= 1
        target = min(target, cap)
        padded = list(chunk)
        if target > len(padded):
            padded.extend(padded[-1] for _ in range(target - len(padded)))
        return padded

    def _bound_chunks(
        self,
        query_for: Callable[[int], SqlQuery],
        items: Sequence[Any],
        width: Optional[int] = None,
        base_params: int = 0,
        restriction_last: bool = False,
    ) -> List[SqlQuery]:
        """Fully-bound statements whose restrictions cover every item.

        ``items`` are tids (``width`` None) or group keys of ``width``
        values each.  They are cut into chunks the parameter budget fits
        next to the ``base_params`` values the statement binds itself,
        each chunk is padded (:meth:`_padded`), and ``query_for(count)``
        supplies the cached statement for the padded count.  The chunk's
        values bind before the statement's own (the restricted ``Q_V``
        opens with its tid list), or after them with ``restriction_last``
        (the restricted ``Q_C`` ends with its tid list).
        """
        if not items:
            return []
        size = self._chunk_size(base_params, 1 if width is None else width)
        items = list(items)
        plans: List[SqlQuery] = []
        for start in range(0, len(items), size):
            chunk = self._padded(items[start : start + size], size)
            query = query_for(len(chunk))
            values = tuple(chunk) if width is None else self.flatten_group_keys(chunk)
            if restriction_last:
                parameters = query.parameters + values
            else:
                parameters = values + query.parameters
            plans.append(
                SqlQuery(
                    query.sql,
                    parameters,
                    rhs_attribute=query.rhs_attribute,
                    kind=query.kind,
                    pattern_index=query.pattern_index,
                )
            )
        return plans

    def covering_members_plans(
        self,
        cfd: CFD,
        rhs_attribute: str,
        keys: Sequence[Tuple[Any, ...]],
    ) -> List[SqlQuery]:
        """Fully-bound covering member enumerations for every group in ``keys``.

        Pattern-independent and index-driven: each statement covers a
        budget-sized chunk of ``keys``; rows come back as ``(tid, lhs_*)``
        and the caller buckets them per group key.
        """
        return self._bound_chunks(
            lambda count: self.covering_members_query(cfd, rhs_attribute, count),
            keys,
            width=len(cfd.lhs),
        )

    def group_stats_plans(
        self,
        cfd: CFD,
        rhs_attribute: str,
        keys: Sequence[Tuple[Any, ...]],
    ) -> List[SqlQuery]:
        """Fully-bound group-stats aggregates covering every group in ``keys``.

        Chunked by the parameter budget like the other group
        restrictions; empty when ``keys`` is empty.
        """
        return self._bound_chunks(
            lambda count: self.group_stats_query(cfd, rhs_attribute, count),
            keys,
            width=len(cfd.lhs),
        )

    def majority_value_plans(
        self,
        cfd: CFD,
        rhs_attribute: str,
        keys: Sequence[Tuple[Any, ...]],
    ) -> List[SqlQuery]:
        """Fully-bound majority-value aggregates covering every group in ``keys``.

        Chunked by the parameter budget like the other group
        restrictions; empty when ``keys`` is empty.
        """
        return self._bound_chunks(
            lambda count: self.majority_value_query(cfd, rhs_attribute, count),
            keys,
            width=len(cfd.lhs),
        )

    def row_fetch_plans(self, tids: Sequence[int]) -> List[SqlQuery]:
        """Fully-bound row fetches covering every tid in ``tids``.

        Chunked by the parameter budget (a flat tid ``IN`` list is one
        expression node); empty when ``tids`` is empty.  Padding repeats
        the last tid, so callers must de-duplicate returned rows by
        ``tid``.
        """
        return self._bound_chunks(self.row_fetch_query, tids)

    @staticmethod
    def flatten_group_keys(keys: Sequence[Tuple[Any, ...]]) -> Tuple[Any, ...]:
        """Bind-ready flattening of group keys (each in ``cfd.lhs`` order)."""
        return tuple(value for key in keys for value in key)

