"""EXPLAIN QUERY PLAN regressions: the detection statements must stay sargable.

Member enumeration (``covering_members_query``), the per-pattern ``Q_C``
and the one-pass ``Q_V`` (``q_window``) all rely on the auto-built CFD-LHS
index.  A harmless-looking rewrite of the SQL could silently fall back to
a full scan and only show up as a benchmark regression, so these tests
ask SQLite's planner directly.
"""

import re

import pytest

from repro.backends import SqliteBackend, StorageBackend
from repro.core.parser import parse_cfd
from repro.detection.sqlgen import DetectionSqlGenerator

#: plan-detail substrings that mean the probe went through an index
INDEX_MARKERS = ("USING INDEX", "USING COVERING INDEX")


def _plan_text(detail):
    return " ".join(str(value) for row in detail for value in row.values()).upper()


@pytest.fixture
def sqlite_customer(customer_relation):
    backend = SqliteBackend()
    backend.add_relation(customer_relation)
    yield backend
    backend.close()


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
            customer_relation.schema, dialect=sqlite_customer.dialect
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
            customer_relation.schema, dialect=sqlite_customer.dialect
        )
        query = generator.covering_members_query(cfd, "CITY", group_count=1)
        detail = sqlite_customer.explain_query_plan(query.sql, ("0", "0"))
        if not detail:
            pytest.skip("this SQLite build returns no EXPLAIN QUERY PLAN rows")
        text = _plan_text(detail)
        assert not any(marker in text for marker in INDEX_MARKERS), text


class TestSargableSinglePlan:
    """The constant-bound ``Q_C`` specialization must ride the CFD-LHS index.

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
            customer_relation.schema, dialect=sqlite_customer.dialect
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
            customer_relation.schema, dialect=sqlite_customer.dialect
        )
        query = generator.plan_single_queries(cfd)[0]
        detail = sqlite_customer.explain_query_plan(query.sql, query.parameters)
        if not detail:
            pytest.skip("this SQLite build returns no EXPLAIN QUERY PLAN rows")
        text = _plan_text(detail)
        assert not any(marker in text for marker in INDEX_MARKERS), text


class TestWindowPlan:
    """The one-pass ``q_window`` statement must probe the CFD-LHS index.

    Every ``detect`` runs its full form and every ``detect_for_tuples``
    its form restricted to the requested group keys.  The member join of
    both forms, and the grouped subquery of the restricted form, must
    search the index with one equality per LHS attribute.
    """

    CFD_TEXT = "customer: [CNT=_, ZIP=_] -> [CITY=_]"
    PROBE = re.compile(
        r"SEARCH (TABLE )?T USING (COVERING )?INDEX \S+ \(CNT=\? AND ZIP=\?\)"
    )

    def _steps(self, backend, query):
        """The (grouped subquery, member join) plan steps, upper-cased."""
        detail = backend.explain_query_plan(query.sql, query.parameters)
        if not detail:
            pytest.skip("this SQLite build returns no EXPLAIN QUERY PLAN rows")
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

    def _queries(self, backend, schema):
        cfd = parse_cfd(self.CFD_TEXT)
        generator = DetectionSqlGenerator(schema, dialect=backend.dialect)
        (full,) = generator.plan_multi_queries(cfd)
        (restricted,) = generator.plan_delta_multi(cfd, "CITY", [("UK", "EH4 1DT")])
        assert full.kind == restricted.kind == "q_window"
        return full, restricted

    def _probes(self, steps):
        return any(self.PROBE.search(step) for step in steps)

    def test_member_joins_and_restricted_subquery_probe_the_index(
        self, sqlite_customer, customer_relation
    ):
        sqlite_customer.ensure_index("customer", parse_cfd(self.CFD_TEXT).lhs)
        full, restricted = self._queries(sqlite_customer, customer_relation.schema)
        _, full_join = self._steps(sqlite_customer, full)
        subquery, restricted_join = self._steps(sqlite_customer, restricted)
        assert self._probes(full_join), full_join
        assert self._probes(subquery), subquery
        assert self._probes(restricted_join), restricted_join

    def test_without_index_the_plans_scan(self, sqlite_customer, customer_relation):
        full, restricted = self._queries(sqlite_customer, customer_relation.schema)
        for query in (full, restricted):
            subquery, join = self._steps(sqlite_customer, query)
            assert "SCAN T" in subquery or "SCAN TABLE T" in subquery, subquery
            assert "SCAN T" in join or "SCAN TABLE T" in join, join
            assert not self._probes(subquery + join)


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
