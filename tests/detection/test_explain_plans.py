"""EXPLAIN QUERY PLAN regressions: the detection statements must stay sargable.

Member enumeration (``covering_members_query``), the per-pattern ``Q_C``
and the one-pass ``Q_V`` (``q_window``) all rely on the auto-built
detection index (the CFD's LHS followed by one RHS attribute), and the
restricted statements must cost the keys and tuples they name.  A
harmless-looking rewrite of the SQL could silently fall back to a full
scan and only show up as a benchmark regression, so these tests ask
SQLite's planner directly.
"""

import re

import pytest

from repro.backends import StorageBackend
from repro.core.parser import parse_cfd
from repro.detection.sqlgen import DetectionSqlGenerator
from repro.engine.relation import Relation
from repro.engine.types import AttributeDef, DataType, RelationSchema

#: plan-detail substrings that mean the probe went through an index
INDEX_MARKERS = ("USING INDEX", "USING COVERING INDEX")


def _plan_text(detail):
    return " ".join(str(value) for row in detail for value in row.values()).upper()


@pytest.fixture
def sqlite_customer(customer_relation, sqlite_backend_factory):
    backend = sqlite_backend_factory()
    backend.add_relation(customer_relation)
    return backend


class TestCoveringMembersPlan:
    @pytest.mark.parametrize(
        "cfd_text, rhs",
        [
            ("customer: [CC=_, AC=_] -> [CITY=_]", "CITY"),
            ("customer: [CC='44', ZIP=_] -> [STR=_]", "STR"),
        ],
    )
    def test_uses_cfd_lhs_index(self, sqlite_customer, customer_relation, cfd_text, rhs):
        cfd = parse_cfd(cfd_text)
        sqlite_customer.ensure_index("customer", cfd.lhs)
        generator = DetectionSqlGenerator(
            customer_relation.schema, max_parameters=sqlite_customer.max_parameters
        )
        query = generator.covering_members_query(cfd, rhs, group_count=1)
        # one group's LHS values, caller-bound like the detector binds them
        parameters = tuple("0" for _ in cfd.lhs)
        detail = sqlite_customer.explain_query_plan(query.sql, parameters)
        if not detail:
            pytest.skip("this SQLite build returns no EXPLAIN QUERY PLAN rows")
        text = _plan_text(detail)
        if "USING" not in text:
            pytest.skip("plan detail carries no index information")
        assert any(marker in text for marker in INDEX_MARKERS), text

    def test_without_index_the_plan_scans(self, sqlite_customer, customer_relation):
        # sanity for the regression above: the index, not SQLite luck, is
        # what makes the probe sargable
        cfd = parse_cfd("customer: [CC=_, AC=_] -> [CITY=_]")
        generator = DetectionSqlGenerator(
            customer_relation.schema, max_parameters=sqlite_customer.max_parameters
        )
        query = generator.covering_members_query(cfd, "CITY", group_count=1)
        detail = sqlite_customer.explain_query_plan(query.sql, ("0", "0"))
        if not detail:
            pytest.skip("this SQLite build returns no EXPLAIN QUERY PLAN rows")
        text = _plan_text(detail)
        assert not any(marker in text for marker in INDEX_MARKERS), text


class TestSargableSinglePlan:
    """The constant-bound ``Q_C`` specialization must ride the LHS index.

    The per-pattern statement turns a constant LHS position into a bare
    ``t.CC = ?`` equality — exactly the shape the auto-built index answers.
    A rewrite that re-wrapped the column in an expression would degrade to
    a scan; ask the planner directly, like the covering-members pin above.
    """

    def test_constant_lhs_pattern_uses_cfd_lhs_index(
        self, sqlite_customer, customer_relation
    ):
        cfd = parse_cfd("customer: [CC='44', AC='131'] -> [CITY='EDI']")
        sqlite_customer.ensure_index("customer", cfd.lhs)
        generator = DetectionSqlGenerator(
            customer_relation.schema, max_parameters=sqlite_customer.max_parameters
        )
        queries = generator.plan_single_queries(cfd)
        assert len(queries) == 1
        query = queries[0]
        assert query.kind == "q_c_sargable"
        assert "t.CC = ?" in query.sql and "t.AC = ?" in query.sql
        detail = sqlite_customer.explain_query_plan(query.sql, query.parameters)
        if not detail:
            pytest.skip("this SQLite build returns no EXPLAIN QUERY PLAN rows")
        text = _plan_text(detail)
        if "USING" not in text:
            pytest.skip("plan detail carries no index information")
        assert any(marker in text for marker in INDEX_MARKERS), text

    def test_without_index_the_plan_scans(self, sqlite_customer, customer_relation):
        cfd = parse_cfd("customer: [CC='44', AC='131'] -> [CITY='EDI']")
        generator = DetectionSqlGenerator(
            customer_relation.schema, max_parameters=sqlite_customer.max_parameters
        )
        query = generator.plan_single_queries(cfd)[0]
        detail = sqlite_customer.explain_query_plan(query.sql, query.parameters)
        if not detail:
            pytest.skip("this SQLite build returns no EXPLAIN QUERY PLAN rows")
        text = _plan_text(detail)
        assert not any(marker in text for marker in INDEX_MARKERS), text


class TestWindowPlan:
    """The ``q_window`` statements must probe the detection index.

    Every ``detect`` runs the full form and every ``detect_for_tuples``
    the form restricted to the requested tids.  The member join of the
    full form searches the index with one equality per LHS attribute.
    The restricted form reads the tids' group keys by rowid (``s``) and
    then reaches the relation only through such searches (``t``, ``x``
    and ``m``): for 1, 4 or 300 tids, never a range over the whole index
    (``(CNT>?)``) or a scan.
    """

    CFD_TEXT = "customer: [CNT=_, ZIP=_] -> [CITY=_]"
    #: a search on both LHS columns by a read of the relation (t, or the
    #: restricted form's x and m)
    PROBE = re.compile(
        r"SEARCH (TABLE )?[TXM] USING (COVERING )?INDEX \S+ \(CNT=\? AND ZIP=\?"
    )
    #: the restricted form's read of the named tuples
    ROWID = "SEARCH S USING INTEGER PRIMARY KEY (ROWID=?)"

    def _steps(self, backend, query):
        """The (grouped subquery, member join) plan steps, upper-cased."""
        detail = _explain(backend, query)
        materialize = next(
            row["id"] for row in detail if "MATERIALIZE" in str(row["detail"])
        )
        inner = [
            str(row["detail"]).upper() for row in detail if row["parent"] == materialize
        ]
        outer = [
            str(row["detail"]).upper()
            for row in detail
            if row["parent"] == 0 and row["id"] != materialize
        ]
        return inner, outer

    def _queries(self, backend, schema, tid_count=1):
        cfd = parse_cfd(self.CFD_TEXT)
        generator = DetectionSqlGenerator(schema, max_parameters=backend.max_parameters)
        (full,) = generator.plan_multi_queries(cfd)
        (restricted,) = generator.plan_delta_multi(cfd, "CITY", list(range(tid_count)))
        assert full.kind == restricted.kind == "q_window"
        return full, restricted

    def _restricted_reads(self, backend, query):
        """The restricted form's reads of the relation by alias: s, t, x, m."""
        reads = _relation_reads(_explain(backend, query))
        by_alias = {read.split()[1]: read for read in reads}
        assert len(by_alias) == len(reads), reads
        assert set(by_alias) == {"S", "T", "X", "M"}, reads
        assert by_alias.pop("S") == self.ROWID, reads
        assert not any("SCAN" in read for read in reads), reads
        return by_alias

    def _probes(self, steps):
        return any(self.PROBE.search(step) for step in steps)

    def test_member_joins_and_restricted_subquery_probe_the_index(
        self, sqlite_customer, customer_relation
    ):
        sqlite_customer.ensure_index("customer", ("CNT", "ZIP", "CITY"))
        for tid_count in (1, 4, 300):
            full, restricted = self._queries(
                sqlite_customer, customer_relation.schema, tid_count
            )
            _, full_join = self._steps(sqlite_customer, full)
            assert self._probes(full_join), full_join
            # the member read, the group's MIN and the EXISTS test
            reads = self._restricted_reads(sqlite_customer, restricted).values()
            assert all(self.PROBE.search(read) for read in reads), reads
            assert not any("(CNT>?)" in read for read in reads), reads

    def test_without_index_the_plans_scan(self, sqlite_customer, customer_relation):
        full, restricted = self._queries(sqlite_customer, customer_relation.schema)
        subquery, join = self._steps(sqlite_customer, full)
        assert "SCAN T" in subquery or "SCAN TABLE T" in subquery, subquery
        assert "SCAN T" in join or "SCAN TABLE T" in join, join
        assert not self._probes(subquery + join)
        reads = _relation_reads(_explain(sqlite_customer, restricted))
        assert reads, reads
        assert not any(
            marker in read for marker in INDEX_MARKERS for read in reads
        ), reads
        # the named tuples are still read by rowid
        assert self.ROWID in reads, reads

    @pytest.mark.parametrize("tid_count", [1, 2, 4, 300])
    def test_constant_lhs_probes_per_key(
        self, sqlite_customer, customer_relation, tid_count
    ):
        # the constant is tested on the key columns, so no read ranges
        # over every UK entry
        cfd = parse_cfd("customer: [CNT='UK', ZIP=_] -> [STR=_]")
        sqlite_customer.ensure_index("customer", ("CNT", "ZIP", "STR"))
        generator = DetectionSqlGenerator(
            customer_relation.schema, max_parameters=sqlite_customer.max_parameters
        )
        (restricted,) = generator.plan_delta_multi(cfd, "STR", list(range(tid_count)))
        reads = self._restricted_reads(sqlite_customer, restricted).values()
        assert all(self.PROBE.search(read) for read in reads), reads
        assert not any("(CNT=? AND ZIP>?)" in read for read in reads), reads

    def test_single_attribute_group_check_is_two_seeks(
        self, sqlite_customer, customer_relation
    ):
        # [CC] -> [CNT]: the group's MIN is a search on CC and the EXISTS a
        # search for a greater CNT, whatever the size of the CC group
        cfd = parse_cfd("customer: [CC=_] -> [CNT=_]")
        sqlite_customer.ensure_index("customer", ("CC", "CNT"))
        generator = DetectionSqlGenerator(
            customer_relation.schema, max_parameters=sqlite_customer.max_parameters
        )
        (restricted,) = generator.plan_delta_multi(cfd, "CNT", [0, 4])
        by_alias = self._restricted_reads(sqlite_customer, restricted)
        reads = list(by_alias.values())
        assert all("USING COVERING INDEX" in read for read in reads), reads
        assert "(CC=? AND CNT>?)" in by_alias["X"], reads
        assert "(CC=?" in by_alias["M"], reads
        assert "(CC=?" in by_alias["T"], reads


class TestRestrictedSinglePlan:
    """The restricted ``Q_C`` reads the named tids by rowid.

    With a (CC, CNT) detection index, SQLite would otherwise read every
    ``CC='44'`` entry and filter them by tid.
    """

    def test_restricted_qc_searches_the_primary_key(
        self, sqlite_customer, customer_relation
    ):
        cfd = parse_cfd("customer: [CC='44'] -> [CNT='UK']")
        sqlite_customer.ensure_index("customer", ("CC", "CNT"))
        generator = DetectionSqlGenerator(
            customer_relation.schema, max_parameters=sqlite_customer.max_parameters
        )
        (restricted,) = generator.plan_delta_single(cfd, [0, 1, 2, 3])
        reads = _relation_reads(_explain(sqlite_customer, restricted))
        assert len(reads) == 1, reads
        assert "USING INTEGER PRIMARY KEY" in reads[0], reads
        assert "INDEX" not in reads[0].replace("PRIMARY KEY", ""), reads


class TestGroupRestrictionPlans:
    """``covering_members`` and ``group_stats`` search the index per key.

    A bare ``(CNT, ZIP) IN (VALUES ...)`` of two or more keys planned as a
    full ``SCAN t``; the row-value semi-join over a subquery is searched
    once per key.
    """

    KEYS = [("UK", "EH4 1DT"), ("US", "01202"), ("NL", "1012"), ("UK", "W1B 1JH")]

    @pytest.mark.parametrize("key_count", [1, 2, 4])
    @pytest.mark.parametrize("builder", ["covering_members_plans", "group_stats_plans"])
    def test_multi_key_restriction_searches_the_index(
        self, sqlite_customer, customer_relation, builder, key_count
    ):
        cfd = parse_cfd("customer: [CNT=_, ZIP=_] -> [CITY=_]")
        sqlite_customer.ensure_index("customer", ("CNT", "ZIP", "CITY"))
        generator = DetectionSqlGenerator(
            customer_relation.schema, max_parameters=sqlite_customer.max_parameters
        )
        (plan,) = getattr(generator, builder)(cfd, "CITY", self.KEYS[:key_count])
        reads = _relation_reads(_explain(sqlite_customer, plan))
        assert len(reads) == 1, reads
        assert TestWindowPlan.PROBE.search(reads[0]), reads


class TestKeysetGroupPagePlans:
    """The explorer's keyset page of LHS groups reads only its page.

    The keyset ``attr_freq`` statement (``ORDER BY`` the LHS, ``LIMIT ?``,
    and ``(t.CNT, t.ZIP) > (?, ?)`` after the first page) must search the
    detection index, which covers it and holds the groups in key order:
    no scan of the table and no temp B-tree to sort the groups.
    """

    @pytest.mark.parametrize(
        "cfd_text, rhs",
        [
            ("customer: [CNT=_, ZIP=_] -> [CITY=_]", "CITY"),
            ("customer: [CNT='UK', ZIP=_] -> [STR=_]", "STR"),
        ],
        ids=["phi1", "phi2"],
    )
    @pytest.mark.parametrize("after", [False, True], ids=["first", "next"])
    def test_group_page_searches_a_covering_index(
        self, sqlite_customer, customer_relation, cfd_text, rhs, after
    ):
        cfd = parse_cfd(cfd_text)
        sqlite_customer.ensure_index("customer", cfd.lhs + (rhs,))
        generator = DetectionSqlGenerator(
            customer_relation.schema, max_parameters=sqlite_customer.max_parameters
        )
        query = generator.attr_freq_query(cfd, 0, after=after)
        parameters = query.parameters + (("UK", "EH4 1DT") if after else ()) + (50,)
        detail = sqlite_customer.explain_query_plan(query.sql, parameters)
        if not detail:
            pytest.skip("this SQLite build returns no EXPLAIN QUERY PLAN rows")
        steps = [str(row["detail"]).upper() for row in detail]
        reads = _relation_reads(detail)
        assert len(reads) == 1, steps
        assert reads[0].startswith("SEARCH T USING COVERING INDEX"), steps
        assert not any("TEMP B-TREE" in step for step in steps), steps


class TestTypedConstantPlans:
    """A constant on a non-STRING LHS column seeks the detection index.

    Constants bind typed by their column, so ``t.A = ?`` compares stored
    values and the planner searches the LHS+RHS index.  A column rendered
    as text (``CAST(t.A AS TEXT) = ?``) is not sargable: SQLite would scan
    the whole index.
    """

    SCHEMA = RelationSchema(
        "r",
        [
            AttributeDef("A", DataType.INTEGER),
            AttributeDef("B"),
            AttributeDef("C", DataType.FLOAT),
            AttributeDef("D"),
        ],
    )

    @pytest.fixture
    def typed_backend(self, sqlite_backend_factory):
        rows = [
            {"A": index % 50, "B": f"b{index % 7}", "C": (index % 40) / 2, "D": "d1"}
            for index in range(400)
        ]
        backend = sqlite_backend_factory()
        backend.add_relation(Relation.from_rows(self.SCHEMA, rows))
        return backend

    @pytest.mark.parametrize(
        "cfd_text, column",
        [
            ("r: [A='7', B=_] -> [D='d1']", "A"),
            ("r: [C='2.5', B=_] -> [D='d1']", "C"),
        ],
        ids=["integer", "float"],
    )
    def test_constant_lhs_searches_the_index(self, typed_backend, cfd_text, column):
        cfd = parse_cfd(cfd_text).coerced_to(self.SCHEMA)
        typed_backend.ensure_index("r", cfd.lhs + cfd.rhs)
        (query,) = DetectionSqlGenerator(self.SCHEMA).plan_single_queries(cfd)
        reads = _relation_reads(_explain(typed_backend, query))
        assert len(reads) == 1, reads
        assert reads[0].startswith("SEARCH T USING COVERING INDEX"), reads
        assert f"({column}=? AND B>?)" in reads[0], reads


def _explain(backend, query):
    detail = backend.explain_query_plan(query.sql, query.parameters)
    if not detail:
        pytest.skip("this SQLite build returns no EXPLAIN QUERY PLAN rows")
    return detail


def _relation_reads(detail):
    """The plan steps that read the relation (aliases t, x, m, s), upper-cased."""
    steps = [str(row["detail"]).upper().replace(" TABLE ", " ") for row in detail]
    return [
        step
        for step in steps
        if step.startswith(("SCAN ", "SEARCH "))
        and step.split()[1] in ("T", "X", "M", "S")
    ]


class TestExplainHook:
    def test_base_backend_has_no_plan_introspection(self, sqlite_customer):
        # backends without plan introspection inherit the None contract
        assert StorageBackend.explain_query_plan(sqlite_customer, "SELECT 1") is None

    def test_sqlite_returns_rows_for_plain_select(self, sqlite_customer):
        detail = sqlite_customer.explain_query_plan("SELECT * FROM customer")
        assert detail is None or isinstance(detail, list)
        if detail:
            assert all(isinstance(row, dict) for row in detail)

    def test_sqlite_invalid_sql_returns_none(self, sqlite_customer):
        assert sqlite_customer.explain_query_plan("SELECT * FROM no_such_table") is None
