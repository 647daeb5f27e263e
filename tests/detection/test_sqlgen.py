"""Tests for the CFD-to-SQL compiler."""

import pytest

from repro.backends import SqliteBackend
from repro.backends.dialect import SQLITE_DIALECT, SqliteDialect
from repro.core.cfd import CFD
from repro.core.parser import parse_cfd
from repro.core.pattern import PatternTuple
from repro.detection.sqlgen import DetectionSqlGenerator
from repro.engine.types import AttributeDef, DataType, RelationSchema
from repro.errors import DetectionError

SCHEMA = RelationSchema.of("customer", ["NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"])


@pytest.fixture
def generator():
    return DetectionSqlGenerator(SCHEMA)


class TestSingleTupleQuery:
    def test_constant_rhs_produces_query(self, generator):
        cfd = parse_cfd("customer: [CC='44'] -> [CNT='UK']")
        (sql,) = generator.plan_single_queries(cfd)
        assert "FROM customer t\n" in sql
        assert "t.CC = ?" in sql
        assert "t._tid AS tid" in sql
        assert sql.parameters == ("44", "UK")

    def test_wildcard_rhs_produces_none(self, generator):
        cfd = parse_cfd("customer: [CNT='UK', ZIP=_] -> [STR=_]")
        assert generator.plan_single_queries(cfd) == []

    def test_escapes_quotes_in_wildcards_and_constants(self):
        schema = RelationSchema.of("r", ["A", "B"])
        generator = DetectionSqlGenerator(schema)
        cfd = parse_cfd("r: [A='it''s'] -> [B='x']")
        (sql,) = generator.plan_single_queries(cfd)
        # constants travel as parameters, never as quoted literals
        assert "it's" not in sql.sql and "'" not in sql.sql
        assert sql.parameters == ("it's", "x")


class TestMultiTupleQuery:
    def test_variable_rhs_produces_group_query(self, generator):
        cfd = parse_cfd("customer: [CNT='UK', ZIP=_] -> [STR=_]")
        (sql,) = generator.plan_multi_queries(cfd)
        assert "GROUP BY" in sql
        assert "HAVING COUNT(DISTINCT t.STR) > 1" in sql
        assert "t.CNT = ?" in sql and "t.ZIP IS NOT NULL" in sql

    def test_constant_rhs_produces_no_query(self, generator):
        cfd = parse_cfd("customer: [CC='44'] -> [CNT='UK']")
        assert generator.plan_multi_queries(cfd) == []

    def test_one_query_per_wildcard_rhs_attribute(self):
        schema = RelationSchema.of("r", ["A", "B", "C"])
        generator = DetectionSqlGenerator(schema)
        merged = CFD(
            relation="r",
            lhs=("A",),
            rhs=("B", "C"),
            patterns=(PatternTuple.of({"A": "_", "B": "_", "C": "_"}),),
            name="phi",
        )
        queries = generator.plan_multi_queries(merged)
        assert [query.rhs_attribute for query in queries] == ["B", "C"]
        assert "HAVING COUNT(DISTINCT t.B) > 1" in queries[0]
        assert "HAVING COUNT(DISTINCT t.C) > 1" in queries[1]

    def test_only_wildcard_rhs_attributes_get_a_query(self, generator):
        merged = CFD(
            relation="customer",
            lhs=("ZIP",),
            rhs=("STR", "CITY"),
            patterns=(
                PatternTuple.of({"ZIP": "_", "STR": "_", "CITY": "London"}),
            ),
            name="phi",
        )
        # CITY has no wildcard pattern, so no Q_V covers it
        assert [q.rhs_attribute for q in generator.plan_multi_queries(merged)] == [
            "STR"
        ]


@pytest.fixture
def customer_backend(customer_relation):
    backend = SqliteBackend()
    backend.add_relation(customer_relation)
    yield backend
    backend.close()


class TestGeneratedSqlRuns:
    def test_queries_execute_on_sqlite(self, customer_relation, customer_backend):
        cfd = parse_cfd("customer: [CC='44'] -> [CNT='UK']")
        generator = DetectionSqlGenerator(customer_relation.schema)
        (query,) = generator.plan_single_queries(cfd)
        rows = customer_backend.execute(query.sql, query.parameters)
        assert [row["tid"] for row in rows] == [4]

    def test_multi_query_executes_and_groups(self, customer_relation, customer_backend):
        cfd = parse_cfd("customer: [CNT='UK', ZIP=_] -> [STR=_]")
        generator = DetectionSqlGenerator(customer_relation.schema)
        (query,) = generator.plan_multi_queries(cfd)
        rows = customer_backend.execute(query.sql, query.parameters)
        # the one violating group's members, with their LHS values
        assert sorted(row["tid"] for row in rows) == [0, 1]
        assert {(row["lhs_CNT"], row["lhs_ZIP"]) for row in rows} == {
            ("UK", "EH4 1DT")
        }


def _two_lhs_cfd(relation="r"):
    return CFD(
        relation=relation,
        lhs=("A", "B"),
        rhs=("C",),
        patterns=(PatternTuple.of({"A": "_", "B": "_", "C": "_"}),),
        name="phi_two_lhs",
    )


TWO_LHS_SCHEMA = RelationSchema.of("r", ["A", "B", "C"])


class TestDeltaPlans:
    """The budget-chunked restricted query plans."""

    def test_delta_qc_uses_in_list_and_carries_lhs(self):
        generator = DetectionSqlGenerator(TWO_LHS_SCHEMA, dialect=SqliteDialect())
        cfd = parse_cfd("r: [A='x', B=_] -> [C='c1']")
        (query,) = generator.plan_delta_single(cfd, [1, 2, 3, 4])
        assert "t._tid IN (?, ?, ?, ?)" in query.sql
        assert "t.A AS lhs_A" in query.sql and "t.B AS lhs_B" in query.sql
        # the pattern constants bind first, the tids last
        assert query.parameters == ("x", "c1", 1, 2, 3, 4)

    def test_single_attribute_groups_use_flat_in_list(self):
        cfd = parse_cfd("r: [A=_] -> [C=_]")
        generator = DetectionSqlGenerator(TWO_LHS_SCHEMA, dialect=SqliteDialect())
        keys = [("a",), ("b",), ("c",), ("d",)]
        (query,) = generator.plan_delta_multi(cfd, "C", keys)
        assert "t.A IN (?, ?, ?, ?)" in query.sql
        assert "VALUES" not in query.sql

    def test_multi_attribute_groups_use_row_values(self):
        generator = DetectionSqlGenerator(TWO_LHS_SCHEMA, dialect=SqliteDialect())
        cfd = _two_lhs_cfd()
        (query,) = generator.plan_delta_multi(cfd, "C", [("x", "y"), ("u", "v")])
        assert "(t.A, t.B) IN (VALUES (?, ?), (?, ?))" in query.sql
        assert generator.flatten_group_keys([("x", "y")]) == ("x", "y")

    def test_chunking_respects_parameter_budget(self):
        generator = DetectionSqlGenerator(
            TWO_LHS_SCHEMA, dialect=SqliteDialect(max_parameters=20)
        )
        cfd = _two_lhs_cfd()
        keys = [(f"a{i}", f"b{i}") for i in range(30)]
        plans = generator.plan_delta_multi(cfd, "C", keys)
        assert len(plans) > 1
        for plan in plans:
            assert plan.sql.count("?") == len(plan.parameters) <= 20
        # every group appears in exactly one plan
        bound = [value for plan in plans for value in plan.parameters]
        for key in keys:
            assert key[0] in bound and key[1] in bound

    def test_tid_chunking_respects_parameter_budget(self):
        generator = DetectionSqlGenerator(
            TWO_LHS_SCHEMA, dialect=SqliteDialect(max_parameters=10)
        )
        cfd = parse_cfd("r: [A=_, B=_] -> [C='c1']")
        plans = generator.plan_delta_single(cfd, list(range(25)))
        assert len(plans) > 1
        for plan in plans:
            assert plan.sql.count("?") == len(plan.parameters) <= 10

    def test_empty_inputs_produce_no_plans(self):
        generator = DetectionSqlGenerator(TWO_LHS_SCHEMA, dialect=SqliteDialect())
        cfd = _two_lhs_cfd()
        assert generator.plan_delta_single(cfd, []) == []
        assert generator.plan_delta_multi(cfd, "C", []) == []
        # a wildcard-RHS-only CFD has no Q_C, so no single plans either
        assert generator.plan_delta_single(cfd, [1, 2]) == []

    def test_budget_too_small_for_one_item_raises(self):
        # silently emitting an over-budget statement would only defer the
        # failure to an opaque "too many SQL variables" execution error
        generator = DetectionSqlGenerator(
            TWO_LHS_SCHEMA, dialect=SqliteDialect(max_parameters=1)
        )
        cfd = _two_lhs_cfd()  # each restricted group binds 2 values
        with pytest.raises(DetectionError, match="parameter budget"):
            generator.plan_delta_multi(cfd, "C", [("x", "y")])


class TestDialects:
    def test_sqlite_dialect_casts_and_parameterises(self):
        schema = RelationSchema(
            "orders",
            [AttributeDef("QUANTITY", DataType.INTEGER), AttributeDef("PRODUCT")],
        )
        generator = DetectionSqlGenerator(schema, dialect=SQLITE_DIALECT)
        cfd = parse_cfd("orders: [QUANTITY='5'] -> [PRODUCT='gadget']")
        (query,) = generator.plan_single_queries(cfd)
        assert "CAST(t.QUANTITY AS TEXT) = ?" in query.sql
        assert "CONCAT" not in query.sql
        assert query.parameters == ("5", "gadget")
        assert query.sql.count("?") == 2

    def test_sqlite_multi_query_parameters_match_placeholders(self, customer_relation):
        generator = DetectionSqlGenerator(customer_relation.schema, dialect=SQLITE_DIALECT)
        cfd = parse_cfd("customer: [CNT='UK', ZIP=_] -> [STR=_]")
        (query,) = generator.plan_multi_queries(cfd)
        assert query.sql.count("?") == len(query.parameters) == 1


#: a constant CFD with an empty LHS: it has a Q_C but no groups at all
EMPTY_LHS_CFD = CFD(
    relation="customer",
    lhs=(),
    rhs=("CNT",),
    patterns=(PatternTuple.of({"CNT": "UK"}),),
    name="phi_empty_lhs",
)

GROUPED_CFD = parse_cfd("customer: [CNT='UK', ZIP=_] -> [STR=_]")


class TestBuilderGuards:
    """Builders refuse shapes that would render malformed SQL (``IN ()``,
    a grouping over no attributes) instead of deferring the failure."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda g: g.covering_members_query(EMPTY_LHS_CFD, "CNT", 1),
                "non-empty LHS",
            ),
            (
                lambda g: g.covering_members_query(GROUPED_CFD, "STR", 0),
                "group_count",
            ),
            (lambda g: g.tid_lhs_query(EMPTY_LHS_CFD, 1), "non-empty LHS"),
            (lambda g: g.tid_lhs_query(GROUPED_CFD, 0), "tid_count"),
            (lambda g: g.group_stats_query(EMPTY_LHS_CFD, "CNT", 1), "non-empty LHS"),
            (lambda g: g.group_stats_query(GROUPED_CFD, "STR", 0), "group_count"),
            (
                lambda g: g.majority_value_query(EMPTY_LHS_CFD, "CNT", 1),
                "non-empty LHS",
            ),
            (lambda g: g.majority_value_query(GROUPED_CFD, "STR", 0), "group_count"),
            (lambda g: g.row_fetch_query(0), "tid_count"),
            (lambda g: g.page_fetch_query(page_size=0), "page_size"),
        ],
        ids=[
            "covering-empty-lhs",
            "covering-no-groups",
            "tid_lhs-empty-lhs",
            "tid_lhs-no-tids",
            "group_stats-empty-lhs",
            "group_stats-no-groups",
            "majority-empty-lhs",
            "majority-no-groups",
            "row_fetch-no-tids",
            "page_fetch-empty-page",
        ],
    )
    def test_malformed_shapes_raise(self, generator, build, message):
        with pytest.raises(ValueError, match=message):
            build(generator)

    def test_unknown_value_freq_attribute_raises(self, generator):
        with pytest.raises(DetectionError, match="unknown attribute"):
            generator.value_freq_query("NOPE")

    @pytest.mark.usefixtures("plan_family")
    def test_empty_lhs_cfds_get_no_grouped_statements(self, generator):
        assert generator.plan_multi_queries(EMPTY_LHS_CFD) == []
        assert generator.plan_delta_multi(EMPTY_LHS_CFD, "CNT", [("x",)]) == []
        assert generator.lhs_values_plans(EMPTY_LHS_CFD, [0, 1]) == []
        # the constant RHS still has its Q_C
        assert generator.plan_single_queries(EMPTY_LHS_CFD)

    def test_empty_restrictions_build_no_plans(self, generator):
        assert generator.covering_members_plans(GROUPED_CFD, "STR", []) == []
        assert generator.group_stats_plans(GROUPED_CFD, "STR", []) == []
        assert generator.majority_value_plans(GROUPED_CFD, "STR", []) == []
        assert generator.row_fetch_plans([]) == []
        assert generator.plan_delta_single(GROUPED_CFD, []) == []


class TestSqlQuery:
    def test_str_and_containment_read_the_sql_text(self, generator):
        cfd = parse_cfd("customer: [CC='44'] -> [CNT='UK']")
        (query,) = generator.plan_single_queries(cfd)
        assert str(query) == query.sql
        assert "t.CNT" in query
        assert "no such fragment" not in query
