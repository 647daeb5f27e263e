"""Generation of SQL detection queries from CFDs.

Following the SQL-based technique of the paper's companion article (Fan et
al., TODS 2008), each (merged) CFD ``phi = (R: X -> A, Tp)`` is compiled into
two SQL queries that run against the data relation ``R`` joined with the
relational encoding of the pattern tableau ``Tp``:

* ``Q_C`` (single-tuple violations): finds tuples that match the LHS pattern
  of some pattern tuple whose RHS is a constant, but carry a different RHS
  value;
* ``Q_V`` (multi-tuple violations): groups the tuples matching the LHS
  pattern of some pattern tuple whose RHS is the wildcard ``_`` by their LHS
  values and keeps the groups with more than one distinct RHS value.

Wildcards are encoded as SQL NULL inside the tableau relation (a constant
whose value is literally ``'_'`` therefore cannot be misread as one), so
the matching predicate for an LHS attribute ``X`` is
``(tab.X IS NULL OR tab.X = t.X)``.  For non-string attributes the data
side is rendered as a string through the backend's
:class:`~repro.backends.dialect.SqlDialect` (``CAST(... AS TEXT)`` on
SQLite), so the comparison happens on the string encoding used by the
tableau.

Two *detection plan families* are compiled, selected by ``detect_plan``:

* ``legacy`` — the paper's tableau-joined ``Q_C``/``Q_V`` above, with
  group members enumerated by the covering members plan.
* ``window`` — ``Q_C`` becomes one *sargable* statement per pattern row
  whose constant LHS positions render as parameter-bound equalities
  (``t.A = ?``), riding the auto-built CFD-LHS index (statement kind
  ``q_c_sargable``); ``Q_V`` becomes a *one-pass* plan returning the
  violating groups **and** their member rows in a single statement,
  eliminating the detect→covering-members round trip.  SQLite rejects
  DISTINCT in window functions, so the one pass is the JOIN-on-aggregate
  rewrite (statement kind ``q_window``).  Per-pattern statements with
  identical SQL are emitted once, labelled with the lowest pattern index.

``detect_plan="auto"`` resolves to ``window``.  The resolved variant is
part of every prepared-plan cache key, so flipping ``detect_plan``
mid-session can never serve a stale shape.  Inline literal values
(pattern constants in the specialized plans) travel out-of-band as ``?``
parameters — SQL strings never embed data values.

Delta variants of the queries (the ``delta_plans_*`` / ``plan_delta_*``
family) restrict re-evaluation to the tuples / LHS-value groups an update
batch touched.  Affected tids and single-attribute group keys travel as a
flat ``IN (?, ?, ...)`` list; multi-attribute group keys use a row-value
semi-join — ``(t.X1, t.X2) IN (VALUES (?, ?), ...)`` — which lets SQLite
drive the probe through the CFD-LHS index.  Both shapes are one
expression node however long, so chunking is driven by the dialect's
*parameter budget* alone
(:attr:`~repro.backends.dialect.SqlDialect.max_parameters`): each emitted
statement binds at most that many values, however wide the CFD's LHS is.

Two plan-quality mechanisms sit on top of the query builders:

* a *prepared-plan cache* — every built query is memoised per generator,
  keyed by (CFD, tableau, RHS attribute, chunk shape), so the per-chunk
  delta statements the batch and incremental detectors re-issue are
  rendered once.  :meth:`DetectionSqlGenerator.invalidate_plans` drops the
  plans tied to one materialised tableau; the detectors call it whenever
  they drop or replace a ``__semandaq_*`` tableau so a re-registered CFD
  can never reuse a stale plan;
* a *covering members plan* (:meth:`covering_members_query`) — member
  enumeration for violating LHS groups without the tableau join: the
  group restriction already fixes the LHS values, and pattern-LHS
  applicability is a function of those values alone, so the query reduces
  to the restriction plus the non-NULL RHS guard.  Its predicates are
  plain equalities on the LHS attributes, which lets SQLite drive the
  probe straight off the auto-built CFD-LHS index (``_tid`` rides along
  in every index entry) instead of scanning through the non-sargable
  wildcard-match predicate of the tableau-joined form.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..backends.dialect import SQLITE_DIALECT, SqlDialect
from ..core.cfd import CFD
from ..core.tableau import PATTERN_ID_COLUMN
from ..engine.types import RelationSchema
from ..errors import DetectionError
from ..obs.telemetry import NULL_TELEMETRY, Telemetry

#: alias used for the data relation in generated queries
DATA_ALIAS = "t"
#: alias used for the tableau relation in generated queries
TABLEAU_ALIAS = "tab"

#: detection plan families: ``legacy`` keeps the tableau-joined queries,
#: ``window`` specializes ``Q_C`` per pattern row with index-friendly
#: constant equalities and adds the one-pass group+members ``Q_V``;
#: ``auto`` resolves to ``window``
DETECT_PLANS = ("auto", "legacy", "window")

#: environment switch pre-selecting the detection plan family (used by CI
#: to force the legacy shape on a modern library); an explicit
#: ``detect_plan`` argument always wins over it
DETECT_PLAN_ENV = "SEMANDAQ_DETECT_PLAN"

#: column-alias prefix for the LHS values a delta ``Q_C`` carries so the
#: caller can assemble violation reports without touching the data store
LHS_COLUMN_PREFIX = "lhs_"


def _unknown_detect_plan(requested: str, source: str) -> DetectionError:
    return DetectionError(
        f"unknown {source} {requested!r}; "
        f"expected one of {', '.join(DETECT_PLANS)}"
    )


def default_detect_plan() -> str:
    """The detection plan family used when the caller does not pick one.

    ``SEMANDAQ_DETECT_PLAN`` overrides the ``auto`` default, so a CI leg
    can pin every detector in a process to one plan shape without
    threading configuration through each test.  An unknown value raises
    :class:`~repro.errors.DetectionError`: a typo must not silently run
    another family than the one the leg meant to pin.
    """
    value = os.environ.get(DETECT_PLAN_ENV, "").strip().lower()
    if not value:
        return "auto"
    if value not in DETECT_PLANS:
        raise _unknown_detect_plan(value, DETECT_PLAN_ENV)
    return value


def resolve_detect_plan(requested: str, dialect: SqlDialect) -> str:
    """Resolve a requested plan family to the variant that runs.

    ``legacy`` and ``window`` resolve to themselves and ``auto`` to
    ``window``; an unknown family raises
    :class:`~repro.errors.DetectionError`.  Every supported dialect runs
    both families, so ``dialect`` does not change the outcome.
    """
    del dialect
    if requested not in DETECT_PLANS:
        raise _unknown_detect_plan(requested, "detect_plan")
    return "window" if requested == "auto" else requested


@dataclass(frozen=True)
class SqlQuery:
    """One generated query: SQL text plus its bound parameter values.

    ``parameters`` is empty for queries whose placeholders the caller
    binds at execution time (the ``*_query`` builders of the restricted
    statements; the ``*_plans`` helpers return them bound).
    ``rhs_attribute`` names the RHS attribute a ``Q_V`` query detects
    disagreements on (``None`` for the other query kinds).  ``kind`` is the statement-kind tag the
    telemetry layer buckets executions under (``q_c``, ``q_v``,
    ``q_c_sargable``, ``q_window``, ``delta_single``, ``covering_members``,
    ...); detectors announce it to the instrumented backend via
    :meth:`~repro.obs.telemetry.Telemetry.tag_statements`.
    ``pattern_index`` is set on the per-pattern specialized plans of the
    ``window`` family, whose statements carry no ``pattern_id`` column —
    the pattern is implicit in the statement.
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

    ``dialect`` supplies the string rendering and the statement budgets; it
    defaults to the SQLite dialect with the portable 999-parameter floor.
    ``detect_plan`` selects the detection plan family (see
    :data:`DETECT_PLANS`); ``None`` means :func:`default_detect_plan`
    (the ``SEMANDAQ_DETECT_PLAN`` environment switch or ``auto``).
    """

    def __init__(
        self,
        schema: RelationSchema,
        dialect: Optional[SqlDialect] = None,
        telemetry: Optional["Telemetry"] = None,
        detect_plan: Optional[str] = None,
    ):
        self.schema = schema
        self.dialect = dialect or SQLITE_DIALECT
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: the requested plan family and its resolved variant;
        #: :meth:`set_detect_plan` re-resolves both
        self.requested_detect_plan = (
            default_detect_plan() if detect_plan is None else detect_plan
        )
        self.detect_plan = resolve_detect_plan(
            self.requested_detect_plan, self.dialect
        )
        #: prepared-plan cache: (kind, cfd, tableau, rhs, chunk shape) -> query.
        #: SqlQuery is frozen, so cached plans are safe to share; entries
        #: scoped to a tableau are dropped by :meth:`invalidate_plans`.
        self._plan_cache: Dict[Tuple[Any, ...], Optional[SqlQuery]] = {}
        #: tableau name -> the CFD it was last materialised for (see
        #: :meth:`claim_tableau`)
        self._tableau_owners: Dict[str, CFD] = {}
        #: guards the cache, owner map and hit/miss counters: serving-layer
        #: worker threads share one generator per relation, and a lost
        #: update on the dicts (or a build raced with an invalidation)
        #: would serve a plan for a tableau another CFD now occupies.
        #: Re-entrant because ``claim_tableau`` calls ``invalidate_plans``.
        self._cache_lock = threading.RLock()
        #: cache telemetry (benchmarks and tests read these)
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    # -- prepared-plan cache -----------------------------------------------------

    def set_detect_plan(self, detect_plan: str) -> None:
        """Switch the plan family mid-session.

        The resolved variant is appended to every cache key, so plans
        compiled under the previous family are simply never matched again —
        a flip can serve a stale shape on no code path.
        """
        self.requested_detect_plan = detect_plan
        self.detect_plan = resolve_detect_plan(detect_plan, self.dialect)

    def _cached_plan(self, key: Tuple[Any, ...], build) -> Optional[SqlQuery]:
        """Memoise one built query under ``key`` (None results included).

        ``key[2]`` is always the tableau name the plan is scoped to (or
        ``None`` for tableau-independent plans), which is what
        :meth:`invalidate_plans` sweeps on.  The resolved plan variant is
        appended to every key, so two families can never share an entry
        and the hit/miss counters account per variant
        (``plan_cache.hits.<variant>``).
        """
        key = key + (self.detect_plan,)
        with self._cache_lock:
            if key in self._plan_cache:
                self.plan_cache_hits += 1
                self.telemetry.inc("plan_cache.hits")
                self.telemetry.inc(f"plan_cache.hits.{self.detect_plan}")
                return self._plan_cache[key]
            self.plan_cache_misses += 1
            self.telemetry.inc("plan_cache.misses")
            self.telemetry.inc(f"plan_cache.misses.{self.detect_plan}")
            plan = build()
            self._plan_cache[key] = plan
            return plan

    def invalidate_plans(self, tableau_name: Optional[str] = None) -> None:
        """Drop cached plans scoped to ``tableau_name`` (or all of them).

        The detectors call this whenever they drop or re-materialise
        (``replace=True``) a ``__semandaq_*`` tableau: a tableau name can
        be reused by a different CFD — e.g. the batch detector's
        positional names, or a re-registered CFD under the same name — and
        a plan compiled for the previous occupant (including a cached
        "no ``Q_C`` exists" ``None``) must not survive the swap.
        """
        with self._cache_lock:
            if tableau_name is None:
                if self._plan_cache:
                    self.telemetry.inc(
                        "plan_cache.invalidations", len(self._plan_cache)
                    )
                self._plan_cache.clear()
                self._tableau_owners.clear()
                return
            stale = [key for key in self._plan_cache if key[2] == tableau_name]
            for key in stale:
                del self._plan_cache[key]
            if stale:
                self.telemetry.inc("plan_cache.invalidations", len(stale))
            self._tableau_owners.pop(tableau_name, None)

    def claim_tableau(self, tableau_name: str, cfd: CFD) -> None:
        """Record that ``tableau_name`` is being (re-)materialised for ``cfd``.

        Call before ``add_relation(tableau, replace=True)``.  When the name
        last hosted a *different* CFD — the batch detector's positional
        names get reused across ``detect`` calls, and a re-registered CFD
        can reclaim its old name — every plan scoped to the name is
        invalidated.  Re-materialising the *same* CFD keeps its plans: the
        tableau content is a pure function of the CFD, so the cached SQL
        stays valid and repeated detections reuse it.
        """
        with self._cache_lock:
            owner = self._tableau_owners.get(tableau_name)
            if owner is not None and owner == cfd:
                return
            self.invalidate_plans(tableau_name)
            self._tableau_owners[tableau_name] = cfd

    def plan_cache_size(self) -> int:
        """Number of cached prepared plans (for tests and benchmarks)."""
        with self._cache_lock:
            return len(self._plan_cache)

    # -- helpers ----------------------------------------------------------------

    def _data_column(self, attribute: str) -> str:
        """Render the data-side column as the tableau's string encoding."""
        dtype = self.schema.attribute(attribute).dtype
        return self.dialect.string_expr(f"{DATA_ALIAS}.{attribute}", dtype)

    def _bind_literal(self, value: str, params: List[Any]) -> str:
        """Render a string literal as a ``?`` parameter bound to ``value``."""
        params.append(value)
        return "?"

    def _match_predicate(self, attribute: str) -> str:
        """The per-attribute LHS matching predicate against the tableau.

        NULL is the wildcard encoding, so a tableau cell matches when it is
        NULL (wildcard) or equals the data value's string encoding; a
        constant whose value is literally ``'_'`` compares like any other.
        """
        tab_column = f"{TABLEAU_ALIAS}.{attribute}"
        data_column = self._data_column(attribute)
        return f"({tab_column} IS NULL OR {tab_column} = {data_column})"

    def _lhs_conditions(self, cfd: CFD) -> List[str]:
        conditions: List[str] = []
        for attribute in cfd.lhs:
            conditions.append(f"{DATA_ALIAS}.{attribute} IS NOT NULL")
            conditions.append(self._match_predicate(attribute))
        return conditions

    # -- query generation ---------------------------------------------------------

    def single_tuple_query(
        self, cfd: CFD, tableau_name: str, include_lhs: bool = False
    ) -> Optional[SqlQuery]:
        """``Q_C``: detect tuples violating a constant RHS pattern on their own.

        Returns ``None`` when no pattern tuple of the CFD has a constant
        RHS.  ``include_lhs`` additionally selects the tuple's LHS values
        (``lhs_*`` columns), which lets both detectors assemble reports
        from backend rows alone.
        """
        return self._cached_plan(
            ("single", cfd, tableau_name, None, 0, include_lhs),
            lambda: self._single_query(cfd, tableau_name, include_lhs=include_lhs),
        )

    def single_tuple_query_delta(
        self, cfd: CFD, tableau_name: str, tid_count: int
    ) -> Optional[SqlQuery]:
        """Delta ``Q_C``: re-check only the ``tid_count`` affected tuples.

        The incremental detector's backend-resident mode runs this after a
        :class:`~repro.backends.delta.DeltaBatch` ships: only the tuples the
        batch touched can have gained or lost a single-tuple violation, so
        the query appends a tid restriction with one ``?`` placeholder per
        affected tid.  The caller binds ``query.parameters`` followed by the
        tids themselves (the delta placeholders come last).
        """
        if tid_count < 1:
            raise ValueError("tid_count must be at least 1")
        return self._cached_plan(
            ("single_delta", cfd, tableau_name, None, tid_count, True),
            lambda: self._single_query(cfd, tableau_name, delta_tid_count=tid_count),
        )

    def _single_query(
        self,
        cfd: CFD,
        tableau_name: str,
        delta_tid_count: Optional[int] = None,
        include_lhs: bool = False,
    ) -> Optional[SqlQuery]:
        rhs_constant_exists = any(
            cfd.rhs_pattern(pattern).value(attr).is_constant
            for pattern in cfd.patterns
            for attr in cfd.rhs
        )
        if not rhs_constant_exists:
            return None
        params: List[Any] = []
        conditions = self._lhs_conditions(cfd)
        rhs_parts: List[str] = []
        for attribute in cfd.rhs:
            tab_column = f"{TABLEAU_ALIAS}.{attribute}"
            data_column = self._data_column(attribute)
            # a non-NULL tableau cell is a constant RHS (NULL encodes the
            # wildcard); the tuple violates it when its value differs or
            # is NULL
            rhs_parts.append(
                f"({tab_column} IS NOT NULL AND "
                f"({data_column} <> {tab_column} OR {DATA_ALIAS}.{attribute} IS NULL))"
            )
        conditions.append("(" + " OR ".join(rhs_parts) + ")")
        if delta_tid_count is not None:
            # The caller-bound tid placeholders come last, *after* every
            # generator-bound wildcard placeholder, so binding order is
            # always ``query.parameters`` followed by the affected tids.
            # A flat IN list is one expression node, so tid chunks are
            # bounded by the parameter budget alone.
            placeholders = ", ".join("?" for _ in range(delta_tid_count))
            conditions.append(f"{DATA_ALIAS}._tid IN ({placeholders})")
        where = " AND ".join(conditions)
        select_columns = [
            f"{DATA_ALIAS}._tid AS tid",
            f"{TABLEAU_ALIAS}.{PATTERN_ID_COLUMN} AS pattern_id",
        ]
        if delta_tid_count is not None or include_lhs:
            # The delta form also carries the tuple's LHS values, so the
            # incremental detector can assemble violation reports entirely
            # from backend rows (no working-store reads).
            for attribute in cfd.lhs:
                select_columns.append(
                    f"{DATA_ALIAS}.{attribute} AS {LHS_COLUMN_PREFIX}{attribute}"
                )
        for attribute in cfd.rhs:
            select_columns.append(f"{TABLEAU_ALIAS}.{attribute} AS expected_{attribute}")
        sql = (
            f"SELECT {', '.join(select_columns)}\n"
            f"FROM {cfd.relation} {DATA_ALIAS}, {tableau_name} {TABLEAU_ALIAS}\n"
            f"WHERE {where}"
        )
        kind = "q_c" if delta_tid_count is None else "delta_single"
        return SqlQuery(sql, tuple(params), kind=kind)

    def wildcard_rhs_attributes(self, cfd: CFD) -> List[str]:
        """RHS attributes carrying the wildcard in at least one pattern."""
        return [
            attr
            for attr in cfd.rhs
            if any(
                cfd.rhs_pattern(pattern).value(attr).is_wildcard
                for pattern in cfd.patterns
            )
        ]

    def multi_tuple_queries(self, cfd: CFD, tableau_name: str) -> List[SqlQuery]:
        """All ``Q_V`` queries of ``cfd``: one per wildcard RHS attribute.

        A merged CFD whose tableau has wildcard patterns on several RHS
        attributes needs one grouping query per such attribute — a single
        query over the first one would silently miss disagreements on the
        others.  Empty when the CFD has no wildcard RHS position or an
        empty LHS.
        """
        if not cfd.lhs:
            return []
        return [
            self._cached_plan(
                ("multi", cfd, tableau_name, attr, 0),
                lambda attr=attr: self._multi_tuple_query_for(cfd, tableau_name, attr),
            )
            for attr in self.wildcard_rhs_attributes(cfd)
        ]

    def multi_tuple_query_delta(
        self,
        cfd: CFD,
        tableau_name: str,
        rhs_attribute: str,
        group_count: int,
    ) -> SqlQuery:
        """Delta ``Q_V``: re-check only the ``group_count`` affected LHS groups.

        After a :class:`~repro.backends.delta.DeltaBatch` ships, only groups
        whose LHS values match a touched tuple's old or new LHS values can
        have changed violation status.  The query appends a group
        restriction (see :meth:`_group_restriction`); the caller binds
        ``query.parameters`` followed by the groups' LHS values flattened
        with :meth:`flatten_group_keys` (the delta placeholders come
        last).  Prefer :meth:`delta_plans_multi`, which also chunks by the
        dialect's parameter budget and returns bound queries.
        """
        if not cfd.lhs:
            raise ValueError("delta Q_V needs a non-empty LHS")
        if group_count < 1:
            raise ValueError("group_count must be at least 1")
        return self._cached_plan(
            ("multi_delta", cfd, tableau_name, rhs_attribute, group_count),
            lambda: self._multi_tuple_query_for(
                cfd, tableau_name, rhs_attribute, delta_group_count=group_count
            ),
        )

    def _group_restriction(self, cfd: CFD, group_count: int) -> str:
        """The affected-group restriction over ``group_count`` LHS-value groups.

        A flat ``IN`` list for a single-attribute LHS, a row-value
        semi-join — ``(t.X1, t.X2) IN (VALUES (?, ?), ...)`` — otherwise.
        All placeholders are caller-bound (the groups' LHS values flattened
        in ``cfd.lhs`` order).  NULL never appears among the bound values:
        a tuple with a NULL LHS cell belongs to no group on any detection
        path.
        """
        lhs = cfd.lhs
        if len(lhs) == 1:
            placeholders = ", ".join("?" for _ in range(group_count))
            return f"{DATA_ALIAS}.{lhs[0]} IN ({placeholders})"
        row = ", ".join(f"{DATA_ALIAS}.{attr}" for attr in lhs)
        value_row = "(" + ", ".join("?" for _ in lhs) + ")"
        values = ", ".join(value_row for _ in range(group_count))
        return f"({row}) IN (VALUES {values})"

    def _multi_tuple_query_for(
        self,
        cfd: CFD,
        tableau_name: str,
        rhs_attribute: str,
        delta_group_count: Optional[int] = None,
    ) -> SqlQuery:
        params: List[Any] = []
        conditions = self._lhs_conditions(cfd)
        # a NULL tableau cell on the RHS attribute is the wildcard — the
        # pattern rows Q_V groups under
        conditions.append(f"{TABLEAU_ALIAS}.{rhs_attribute} IS NULL")
        conditions.append(f"{DATA_ALIAS}.{rhs_attribute} IS NOT NULL")
        if delta_group_count is not None:
            conditions.append(self._group_restriction(cfd, delta_group_count))
        group_columns = [f"{DATA_ALIAS}.{attr}" for attr in cfd.lhs]
        group_columns.append(f"{TABLEAU_ALIAS}.{PATTERN_ID_COLUMN}")
        select_columns = [
            f"{DATA_ALIAS}.{attr} AS {attr}" for attr in cfd.lhs
        ]
        select_columns.append(f"{TABLEAU_ALIAS}.{PATTERN_ID_COLUMN} AS pattern_id")
        select_columns.append(
            f"COUNT(DISTINCT {self._data_column(rhs_attribute)}) AS distinct_rhs"
        )
        select_columns.append(f"COUNT(*) AS group_size")
        sql = (
            f"SELECT {', '.join(select_columns)}\n"
            f"FROM {cfd.relation} {DATA_ALIAS}, {tableau_name} {TABLEAU_ALIAS}\n"
            f"WHERE {' AND '.join(conditions)}\n"
            f"GROUP BY {', '.join(group_columns)}\n"
            f"HAVING COUNT(DISTINCT {self._data_column(rhs_attribute)}) > 1"
        )
        kind = "q_v" if delta_group_count is None else "delta_multi"
        return SqlQuery(sql, tuple(params), rhs_attribute=rhs_attribute, kind=kind)

    # -- the window plan family ----------------------------------------------------

    @property
    def one_pass_multi(self) -> bool:
        """Whether the resolved family's ``Q_V`` returns member rows directly.

        True for ``window`` (false for ``legacy``), whose one-pass
        statements make the covering-members round trip unnecessary:
        callers bucket the ``(tid, lhs_*)`` rows per group key instead of
        enumerating members in a second query wave.
        """
        return self.detect_plan == "window"

    def _constant_single_patterns(self, cfd: CFD) -> List[int]:
        """Pattern indices carrying at least one constant RHS position."""
        return [
            index
            for index, pattern in enumerate(cfd.patterns)
            if any(
                cfd.rhs_pattern(pattern).value(attr).is_constant
                for attr in cfd.rhs
            )
        ]

    def _wildcard_multi_patterns(self, cfd: CFD, rhs_attribute: str) -> List[int]:
        """Pattern indices whose value on ``rhs_attribute`` is the wildcard."""
        return [
            index
            for index, pattern in enumerate(cfd.patterns)
            if cfd.rhs_pattern(pattern).value(rhs_attribute).is_wildcard
        ]

    def _pattern_lhs_conditions(
        self, cfd: CFD, pattern_index: int, params: List[Any]
    ) -> List[str]:
        """Per-pattern LHS conditions with sargable constant equalities.

        A constant position renders as ``<string-encoding> = ?`` binding
        the constant's tableau encoding — for string attributes that is a
        bare ``t.X = ?`` the auto-built CFD-LHS index answers directly
        (the trick the covering members plan proved).  Equality implies
        non-NULL, so the explicit guard is kept only for wildcard
        positions, which any non-NULL value matches.
        """
        pattern = cfd.patterns[pattern_index]
        conditions: List[str] = []
        for attribute in cfd.lhs:
            value = pattern.value(attribute)
            if value.is_constant:
                conditions.append(
                    f"{self._data_column(attribute)} = "
                    f"{self._bind_literal(str(value.constant), params)}"
                )
            else:
                conditions.append(f"{DATA_ALIAS}.{attribute} IS NOT NULL")
        return conditions

    def _sargable_single_for(
        self,
        cfd: CFD,
        pattern_index: int,
        delta_tid_count: Optional[int] = None,
    ) -> SqlQuery:
        """Per-pattern sargable ``Q_C``: no tableau join, constants bound.

        The pattern is implicit in the statement (``pattern_index`` rides
        on the returned :class:`SqlQuery`), so the select list is just
        ``tid`` plus the ``lhs_*`` carry columns.  The delta form appends
        the caller-bound tid restriction after the constant binds.
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
            expected = self._bind_literal(str(value.constant), params)
            rhs_parts.append(
                f"({self._data_column(attribute)} <> {expected} "
                f"OR {DATA_ALIAS}.{attribute} IS NULL)"
            )
        conditions.append("(" + " OR ".join(rhs_parts) + ")")
        if delta_tid_count is not None:
            placeholders = ", ".join("?" for _ in range(delta_tid_count))
            conditions.append(f"{DATA_ALIAS}._tid IN ({placeholders})")
        select_columns = [f"{DATA_ALIAS}._tid AS tid"] + [
            f"{DATA_ALIAS}.{attr} AS {LHS_COLUMN_PREFIX}{attr}" for attr in cfd.lhs
        ]
        sql = (
            f"SELECT {', '.join(select_columns)}\n"
            f"FROM {cfd.relation} {DATA_ALIAS}\n"
            f"WHERE {' AND '.join(conditions)}"
        )
        return SqlQuery(
            sql, tuple(params), kind="q_c_sargable", pattern_index=pattern_index
        )

    def _window_multi_for(
        self,
        cfd: CFD,
        rhs_attribute: str,
        pattern_index: int,
        delta_group_count: Optional[int] = None,
    ) -> SqlQuery:
        """Per-pattern one-pass ``Q_V``: violating groups *and* members.

        Rows come back as ``(tid, lhs_*)`` — one per member of a violating
        group — so the detect→covering-members round trip disappears.
        SQLite rejects DISTINCT in window functions, so the statement is
        the JOIN-on-aggregate rewrite: the grouped ``HAVING`` subquery
        finds the violating keys and the self-join pulls their members
        (LHS equality to a violating key implies the pattern's constants
        and non-NULL LHS by construction — the covering-members argument).
        """
        params: List[Any] = []
        inner_conditions = self._pattern_lhs_conditions(cfd, pattern_index, params)
        inner_conditions.append(f"{DATA_ALIAS}.{rhs_attribute} IS NOT NULL")
        if delta_group_count is not None:
            inner_conditions.append(self._group_restriction(cfd, delta_group_count))
        distinct = f"COUNT(DISTINCT {self._data_column(rhs_attribute)})"
        member_columns = [f"{DATA_ALIAS}._tid AS tid"] + [
            f"{DATA_ALIAS}.{attr} AS {LHS_COLUMN_PREFIX}{attr}" for attr in cfd.lhs
        ]
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

    def plan_single_queries(
        self, cfd: CFD, tableau_name: str, include_lhs: bool = True
    ) -> List[SqlQuery]:
        """The ``Q_C`` statements of the resolved plan family.

        ``legacy``: the single tableau-joined query.  ``window``: one
        sargable statement per constant-RHS pattern row; pattern
        rows that render to an identical statement (wildcard-only LHS with
        the same expected RHS, or patterns made identical by the sub-CFD
        restriction) are emitted once, labelled with the lowest pattern
        index — the rows they'd return are identical, and the lowest index
        is what every detection path reports.
        """
        if self.detect_plan == "legacy":
            query = self.single_tuple_query(cfd, tableau_name, include_lhs=include_lhs)
            return [query] if query is not None else []
        queries: List[SqlQuery] = []
        seen = set()
        for index in self._constant_single_patterns(cfd):
            query = self._cached_plan(
                ("single_sarg", cfd, tableau_name, index, 0),
                lambda index=index: self._sargable_single_for(cfd, index),
            )
            signature = (query.sql, query.parameters)
            if signature in seen:
                continue
            seen.add(signature)
            queries.append(query)
        return queries

    def plan_multi_queries(self, cfd: CFD, tableau_name: str) -> List[SqlQuery]:
        """The ``Q_V`` statements of the resolved plan family.

        ``legacy``: one tableau-joined query per wildcard RHS attribute.
        ``window``: one one-pass statement (see :attr:`one_pass_multi`) per
        (wildcard RHS attribute × pattern row), deduplicated the same way
        as :meth:`plan_single_queries`; wildcard-only patterns thereby keep
        a single statement per RHS attribute.
        """
        if self.detect_plan == "legacy":
            return list(self.multi_tuple_queries(cfd, tableau_name))
        if not cfd.lhs:
            return []
        queries: List[SqlQuery] = []
        for rhs_attribute in self.wildcard_rhs_attributes(cfd):
            seen = set()
            for index in self._wildcard_multi_patterns(cfd, rhs_attribute):
                query = self._cached_plan(
                    ("multi_window", cfd, tableau_name, (rhs_attribute, index), 0),
                    lambda index=index, rhs=rhs_attribute: self._window_multi_for(
                        cfd, rhs, index
                    ),
                )
                signature = (query.sql, query.parameters)
                if signature in seen:
                    continue
                seen.add(signature)
                queries.append(query)
        return queries

    def plan_delta_single(
        self, cfd: CFD, tableau_name: str, tids: Sequence[int]
    ) -> List[SqlQuery]:
        """Fully-bound restricted ``Q_C`` statements of the resolved family.

        The legacy family delegates to :meth:`delta_plans_single`; the
        window family chunks the tid restriction per pattern statement
        under the same parameter budget.
        """
        if self.detect_plan == "legacy":
            return self.delta_plans_single(cfd, tableau_name, tids)
        if not tids:
            return []
        plans: List[SqlQuery] = []
        seen = set()
        for index in self._constant_single_patterns(cfd):
            probe = self._cached_plan(
                ("single_sarg_delta", cfd, tableau_name, index, 1),
                lambda index=index: self._sargable_single_for(
                    cfd, index, delta_tid_count=1
                ),
            )
            signature = (probe.sql, probe.parameters)
            if signature in seen:
                continue
            seen.add(signature)
            size = self._chunk_size(len(probe.parameters), 1)
            for chunk in self._chunked(list(tids), size):
                chunk = self._padded(chunk, size)
                query = self._cached_plan(
                    ("single_sarg_delta", cfd, tableau_name, index, len(chunk)),
                    lambda index=index, count=len(chunk): self._sargable_single_for(
                        cfd, index, delta_tid_count=count
                    ),
                )
                plans.append(
                    SqlQuery(
                        query.sql,
                        tuple(query.parameters) + tuple(chunk),
                        kind=query.kind,
                        pattern_index=query.pattern_index,
                    )
                )
        return plans

    def plan_delta_multi(
        self,
        cfd: CFD,
        tableau_name: str,
        rhs_attribute: str,
        keys: Sequence[Tuple[Any, ...]],
    ) -> List[SqlQuery]:
        """Fully-bound restricted ``Q_V`` statements of the resolved family.

        The legacy family delegates to :meth:`delta_plans_multi`; the
        window family chunks the group restriction per pattern statement
        (restricting its grouped subquery, so the one-pass member rows
        cover exactly the affected groups).
        """
        if not keys or not cfd.lhs:
            return []
        if self.detect_plan == "legacy":
            return self.delta_plans_multi(cfd, tableau_name, rhs_attribute, keys)
        cache_kind = "multi_window_delta"
        plans: List[SqlQuery] = []
        seen = set()
        for index in self._wildcard_multi_patterns(cfd, rhs_attribute):
            probe = self._cached_plan(
                (cache_kind, cfd, tableau_name, (rhs_attribute, index), 1),
                lambda index=index: self._window_multi_for(
                    cfd, rhs_attribute, index, delta_group_count=1
                ),
            )
            signature = (probe.sql, probe.parameters)
            if signature in seen:
                continue
            seen.add(signature)
            size = self._chunk_size(len(probe.parameters), len(cfd.lhs))
            for chunk in self._chunked(list(keys), size):
                chunk = self._padded(chunk, size)
                query = self._cached_plan(
                    (cache_kind, cfd, tableau_name, (rhs_attribute, index), len(chunk)),
                    lambda index=index, count=len(chunk): self._window_multi_for(
                        cfd, rhs_attribute, index, delta_group_count=count
                    ),
                )
                flattened = self.flatten_group_keys(chunk)
                plans.append(
                    SqlQuery(
                        query.sql,
                        tuple(query.parameters) + flattened,
                        rhs_attribute=rhs_attribute,
                        kind=query.kind,
                        pattern_index=query.pattern_index,
                    )
                )
        return plans

    def covering_members_query(
        self,
        cfd: CFD,
        tableau_name: str,
        rhs_attribute: str,
        group_count: int,
    ) -> SqlQuery:
        """Index-only member enumeration for violating LHS groups.

        A tableau join is redundant once the group restriction is in
        place: a group key carries no NULLs (the grouping queries guard
        every LHS attribute with ``IS NOT NULL``), and whether a pattern's
        LHS constants match is a function of the LHS values alone — so
        every tuple whose LHS equals a violating key is applicable by
        construction.  Membership reduces
        to the group restriction plus the non-NULL RHS guard, with plain
        (typed, parameter-bound) equalities on the LHS attributes that
        SQLite answers straight off the auto-built CFD-LHS index:
        ``_tid`` travels in every index entry and the selected columns are
        exactly ``_tid`` + LHS.  The pattern index is resolved by the
        caller (it only labels the violation), so one enumeration covers
        every pattern.

        ``tableau_name`` does not appear in the SQL; it scopes the cached
        plan to the CFD's materialised tableau for
        :meth:`invalidate_plans`.  All placeholders are caller-bound (the
        groups' LHS values flattened with :meth:`flatten_group_keys`).
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
            select_columns = [f"{DATA_ALIAS}._tid AS tid"] + [
                f"{DATA_ALIAS}.{attr} AS {LHS_COLUMN_PREFIX}{attr}" for attr in cfd.lhs
            ]
            sql = (
                f"SELECT {', '.join(select_columns)}\n"
                f"FROM {cfd.relation} {DATA_ALIAS}\n"
                f"WHERE {' AND '.join(conditions)}"
            )
            return SqlQuery(
                sql, (), rhs_attribute=rhs_attribute, kind="covering_members"
            )

        return self._cached_plan(
            ("covering", cfd, tableau_name, rhs_attribute, group_count), build
        )

    def tid_lhs_query(self, cfd: CFD, tid_count: int) -> SqlQuery:
        """The LHS values of ``tid_count`` tuples, NULL-LHS tuples excluded.

        ``detect_for_tuples`` uses this to derive the affected LHS-value
        groups of a restricted detection without reading the working
        store: rows come back as ``(tid, lhs_*)``, and tuples carrying a
        NULL LHS cell are filtered by the engine (they belong to no group
        on any detection path).  All placeholders are caller-bound (the
        tids); the plan is tableau-independent, so it survives tableau
        re-materialisation.
        """
        if not cfd.lhs:
            raise ValueError("the tid-LHS query needs a non-empty LHS")
        if tid_count < 1:
            raise ValueError("tid_count must be at least 1")

        def build() -> SqlQuery:
            conditions = [f"{DATA_ALIAS}.{attr} IS NOT NULL" for attr in cfd.lhs]
            placeholders = ", ".join("?" for _ in range(tid_count))
            conditions.append(f"{DATA_ALIAS}._tid IN ({placeholders})")
            select_columns = [f"{DATA_ALIAS}._tid AS tid"] + [
                f"{DATA_ALIAS}.{attr} AS {LHS_COLUMN_PREFIX}{attr}" for attr in cfd.lhs
            ]
            sql = (
                f"SELECT {', '.join(select_columns)}\n"
                f"FROM {cfd.relation} {DATA_ALIAS}\n"
                f"WHERE {' AND '.join(conditions)}"
            )
            return SqlQuery(sql, kind="lhs_values")

        return self._cached_plan(("tid_lhs", cfd, None, None, tid_count), build)

    # -- repair-source aggregates ---------------------------------------------------

    def value_freq_query(self, attribute: str) -> SqlQuery:
        """Frequency histogram of one column's non-NULL values.

        The backend-resident repair source uses this to replace the
        repairer's ``_column_frequencies`` scan: one ``GROUP BY`` aggregate
        per attribute, returning ``(value, freq, first_tid)`` rows.
        ``first_tid`` (``MIN(_tid)``) lets the caller order ties exactly
        the way the native ``Counter`` does — first encounter over the
        sorted-tid row iteration — so candidate ranking stays
        oracle-identical.  The plan is tableau-independent and binds
        nothing.
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

        return self._cached_plan(("value_freq", attribute, None, None, 0), build)

    def group_stats_query(
        self, cfd: CFD, rhs_attribute: str, group_count: int
    ) -> SqlQuery:
        """Aggregate membership statistics for ``group_count`` LHS groups.

        One row per LHS group that has at least one member — LHS matching
        the restriction, RHS non-NULL — carrying ``member_count`` and the
        ``distinct_rhs`` count on the string encoding ``Q_V`` groups by.
        The backend-resident repair source runs this as a cheap pre-filter
        before enumerating members: keys that come back empty (typically
        fresh-value keys no stored tuple carries) never pay a member
        enumeration, and keys whose members are all fetched already can be
        recognised by count alone.  Like :meth:`covering_members_query`
        the predicate is sargable (plain LHS equalities + the RHS guard);
        the plan is tableau-independent and all placeholders are
        caller-bound (:meth:`flatten_group_keys`).
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
                f"COUNT(DISTINCT {self._data_column(rhs_attribute)}) AS distinct_rhs"
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
            ("group_stats", cfd, None, rhs_attribute, group_count), build
        )

    def row_fetch_query(self, tid_count: int) -> SqlQuery:
        """Full rows of ``tid_count`` tuples, as ``(tid, <attributes...>)``.

        The backend-resident repair source materialises its partial working
        relation through this plan: only the violating tuples (and later
        the members of groups a repair step touched) ever cross the backend
        boundary.  A flat tid ``IN`` list, caller-bound; tableau-independent.
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

        return self._cached_plan(("row_fetch", None, None, None, tid_count), build)

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
        :meth:`group_stats_query`; tableau-independent; all placeholders
        caller-bound (:meth:`flatten_group_keys`).
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
            ("majority_value", cfd, None, rhs_attribute, group_count), build
        )

    def attr_freq_query(self, cfd: CFD, pattern_index: int) -> SqlQuery:
        """LHS-value histogram over one pattern's applicable tuples.

        One row per LHS-value group with at least one applicable member —
        ``(lhs_*, freq)`` — where applicability is the pattern's sargable
        LHS conditions (constants bound, wildcards guarded non-NULL).  The
        resident explorer's drill-down derives its group listing from this
        instead of scanning the relation; the resident auditor's
        applicability counts share the statement kind.
        """
        if not cfd.lhs:
            raise ValueError("the attr-freq query needs a non-empty LHS")

        def build() -> SqlQuery:
            params: List[Any] = []
            conditions = self._pattern_lhs_conditions(cfd, pattern_index, params)
            select_columns = [
                f"{DATA_ALIAS}.{attr} AS {LHS_COLUMN_PREFIX}{attr}" for attr in cfd.lhs
            ]
            select_columns.append("COUNT(*) AS freq")
            group_columns = [f"{DATA_ALIAS}.{attr}" for attr in cfd.lhs]
            sql = (
                f"SELECT {', '.join(select_columns)}\n"
                f"FROM {cfd.relation} {DATA_ALIAS}\n"
                f"WHERE {' AND '.join(conditions)}\n"
                f"GROUP BY {', '.join(group_columns)}"
            )
            return SqlQuery(
                sql, tuple(params), kind="attr_freq", pattern_index=pattern_index
            )

        return self._cached_plan(
            ("attr_freq", cfd, None, None, pattern_index), build
        )

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
            ("applicable_count", subs, None, None, 0), build
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
            ("applicable_tids", subs, None, None, 0), build
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
        :attr:`~repro.backends.dialect.SqlDialect.max_or_terms` disjuncts
        and the parameter budget's worth of bound pattern constants.
        """
        chunks: List[Tuple[CFD, ...]] = []
        current: List[CFD] = []
        current_params = 0
        budget = self.dialect.max_parameters
        for sub in subs:
            pattern = sub.patterns[0]
            sub_params = sum(
                1 for attr in sub.lhs if pattern.value(attr).is_constant
            )
            over_params = current_params + sub_params > budget
            over_terms = len(current) >= self.dialect.max_or_terms
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
        the scan is unrestricted (the adaptive repair fallback pages the
        whole relation through this instead of shipping it via
        ``to_relation``).
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
            ("page_fetch", cfd, None, (rhs_attribute, rhs_filter), page_size), build
        )

    # -- budget-chunked delta plans ------------------------------------------------

    def _chunk_size(self, base_params: int, per_item: int) -> int:
        """Items one delta statement may carry under the parameter budget.

        The budget reserves ``base_params`` slots for the generator-bound
        placeholders of the query body; a budget too small to fit even one
        item raises (emitting a statement that is known to blow the
        engine's variable cap would only defer the failure to an opaque
        execution error).
        """
        budget = self.dialect.max_parameters - base_params
        per_chunk = budget // max(1, per_item)
        if per_chunk < 1:
            raise DetectionError(
                f"the {self.dialect.name!r} dialect's parameter budget "
                f"({self.dialect.max_parameters}) cannot fit one delta item: "
                f"the query body binds {base_params} values and each item "
                f"needs {per_item} more"
            )
        return per_chunk

    def _chunked(self, items: Sequence[Any], size: int) -> Iterable[Sequence[Any]]:
        if size >= len(items):
            yield items
            return
        for start in range(0, len(items), size):
            yield items[start : start + size]

    def _padded(self, chunk: Sequence[Any], cap: int) -> List[Any]:
        """Pad a restriction chunk to a power-of-two length (up to ``cap``).

        Every restriction shape is a pure predicate (``IN`` lists, row-value
        semi-joins), so repeating the last item changes nothing
        semantically — but it quantises the per-statement item count, which
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

    def delta_plans_single(
        self, cfd: CFD, tableau_name: str, tids: Sequence[int]
    ) -> List[SqlQuery]:
        """Fully-bound delta ``Q_C`` statements covering every tid in ``tids``.

        Chunked by the dialect's parameter budget; empty when ``tids`` is
        empty or the CFD has no constant-RHS pattern (no ``Q_C`` exists).
        """
        if not tids:
            return []
        probe = self.single_tuple_query_delta(cfd, tableau_name, 1)
        if probe is None:
            return []
        size = self._chunk_size(len(probe.parameters), 1)
        plans: List[SqlQuery] = []
        for chunk in self._chunked(list(tids), size):
            chunk = self._padded(chunk, size)
            query = self.single_tuple_query_delta(cfd, tableau_name, len(chunk))
            plans.append(
                SqlQuery(
                    query.sql,
                    tuple(query.parameters) + tuple(chunk),
                    kind=query.kind,
                )
            )
        return plans

    def delta_plans_multi(
        self,
        cfd: CFD,
        tableau_name: str,
        rhs_attribute: str,
        keys: Sequence[Tuple[Any, ...]],
    ) -> List[SqlQuery]:
        """Fully-bound delta ``Q_V`` statements covering every group in ``keys``.

        Each key is one group's LHS values in ``cfd.lhs`` order; chunking
        follows the parameter budget.
        """
        if not keys:
            return []
        probe = self.multi_tuple_query_delta(cfd, tableau_name, rhs_attribute, 1)
        size = self._chunk_size(len(probe.parameters), len(cfd.lhs))
        plans: List[SqlQuery] = []
        for chunk in self._chunked(list(keys), size):
            chunk = self._padded(chunk, size)
            query = self.multi_tuple_query_delta(
                cfd, tableau_name, rhs_attribute, len(chunk)
            )
            flattened = self.flatten_group_keys(chunk)
            plans.append(SqlQuery(query.sql, tuple(query.parameters) + flattened,
                                  rhs_attribute=rhs_attribute, kind=query.kind))
        return plans

    def covering_members_plans(
        self,
        cfd: CFD,
        tableau_name: str,
        rhs_attribute: str,
        keys: Sequence[Tuple[Any, ...]],
    ) -> List[SqlQuery]:
        """Fully-bound covering member enumerations for every group in ``keys``.

        Pattern-independent and index-driven: each statement covers a
        budget-sized chunk of ``keys``; rows come back as ``(tid, lhs_*)``
        and the caller buckets them per group key.
        """
        if not keys:
            return []
        # the covering query binds nothing besides the keys
        size = self._chunk_size(0, len(cfd.lhs))
        plans: List[SqlQuery] = []
        for chunk in self._chunked(list(keys), size):
            chunk = self._padded(chunk, size)
            query = self.covering_members_query(
                cfd, tableau_name, rhs_attribute, len(chunk)
            )
            plans.append(
                SqlQuery(
                    query.sql,
                    self.flatten_group_keys(chunk),
                    rhs_attribute=rhs_attribute,
                    kind=query.kind,
                )
            )
        return plans

    def lhs_values_plans(
        self, cfd: CFD, tids: Sequence[int]
    ) -> List[SqlQuery]:
        """Fully-bound tid-LHS lookups covering every tid in ``tids``.

        Chunked by the dialect's parameter budget (a flat tid ``IN`` list
        is one expression node); empty when ``tids`` is empty or the CFD
        has no LHS.
        """
        if not tids or not cfd.lhs:
            return []
        size = self._chunk_size(0, 1)
        plans: List[SqlQuery] = []
        for chunk in self._chunked(list(tids), size):
            chunk = self._padded(chunk, size)
            query = self.tid_lhs_query(cfd, len(chunk))
            plans.append(SqlQuery(query.sql, tuple(chunk), kind=query.kind))
        return plans

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
        if not keys:
            return []
        # the stats query binds nothing besides the keys
        size = self._chunk_size(0, len(cfd.lhs))
        plans: List[SqlQuery] = []
        for chunk in self._chunked(list(keys), size):
            chunk = self._padded(chunk, size)
            query = self.group_stats_query(cfd, rhs_attribute, len(chunk))
            plans.append(
                SqlQuery(
                    query.sql,
                    self.flatten_group_keys(chunk),
                    rhs_attribute=rhs_attribute,
                    kind=query.kind,
                )
            )
        return plans

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
        if not keys:
            return []
        # the majority-value query binds nothing besides the keys
        size = self._chunk_size(0, len(cfd.lhs))
        plans: List[SqlQuery] = []
        for chunk in self._chunked(list(keys), size):
            chunk = self._padded(chunk, size)
            query = self.majority_value_query(cfd, rhs_attribute, len(chunk))
            plans.append(
                SqlQuery(
                    query.sql,
                    self.flatten_group_keys(chunk),
                    rhs_attribute=rhs_attribute,
                    kind=query.kind,
                )
            )
        return plans

    def row_fetch_plans(self, tids: Sequence[int]) -> List[SqlQuery]:
        """Fully-bound row fetches covering every tid in ``tids``.

        Chunked by the dialect's parameter budget (a flat tid ``IN`` list
        is one expression node); empty when ``tids`` is empty.  Padding
        repeats the last tid, so callers must de-duplicate returned rows
        by ``tid``.
        """
        if not tids:
            return []
        size = self._chunk_size(0, 1)
        plans: List[SqlQuery] = []
        for chunk in self._chunked(list(tids), size):
            chunk = self._padded(chunk, size)
            query = self.row_fetch_query(len(chunk))
            plans.append(SqlQuery(query.sql, tuple(chunk), kind=query.kind))
        return plans

    @staticmethod
    def flatten_group_keys(keys: Sequence[Tuple[Any, ...]]) -> Tuple[Any, ...]:
        """Bind-ready flattening of group keys (each in ``cfd.lhs`` order)."""
        return tuple(value for key in keys for value in key)


def tableau_relation_name(cfd: CFD, index: int) -> str:
    """A unique, SQL-safe name for the materialised tableau of ``cfd``."""
    return f"__semandaq_tableau_{index}"
