"""Tests for the CFD-to-SQL compiler."""

import pytest

from repro.backends import SqliteBackend
from repro.core.cfd import CFD
from repro.core.parser import parse_cfd
from repro.core.pattern import PatternTuple
from repro.detection.sqlgen import DetectionSqlGenerator
from repro.engine.types import AttributeDef, DataType, RelationSchema
from repro.errors import CfdSchemaError, DetectionError

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


    def test_restricted_multi_query_returns_each_member_once(
        self, customer_relation, customer_backend
    ):
        cfd = parse_cfd("customer: [CNT='UK', ZIP=_] -> [STR=_]")
        generator = DetectionSqlGenerator(customer_relation.schema)
        # three keys pad to four by repeating the last, violating one
        keys = [("US", "01202"), ("NL", "1012"), ("UK", "EH4 1DT")]
        (query,) = generator.plan_delta_multi(cfd, "STR", keys)
        assert len(query.parameters) == 4 * 2 + 1
        rows = customer_backend.execute(query.sql, query.parameters)
        assert sorted(row["tid"] for row in rows) == [0, 1]


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
        generator = DetectionSqlGenerator(TWO_LHS_SCHEMA)
        cfd = parse_cfd("r: [A='x', B=_] -> [C='c1']")
        (query,) = generator.plan_delta_single(cfd, [1, 2, 3, 4])
        assert "t._tid IN (?, ?, ?, ?)" in query.sql
        # each tid is a rowid lookup: no index on the constant LHS is used
        assert "FROM r t NOT INDEXED\n" in query.sql
        assert "t.A AS lhs_A" in query.sql and "t.B AS lhs_B" in query.sql
        # the pattern constants bind first, the tids last
        assert query.parameters == ("x", "c1", 1, 2, 3, 4)
        # the full Q_C keeps the index
        (full,) = generator.plan_single_queries(cfd)
        assert "NOT INDEXED" not in full.sql

    def test_single_attribute_groups_use_flat_in_list(self):
        cfd = parse_cfd("r: [A=_] -> [C=_]")
        generator = DetectionSqlGenerator(TWO_LHS_SCHEMA)
        keys = [("a",), ("b",), ("c",), ("d",)]
        (members,) = generator.covering_members_plans(cfd, "C", keys)
        assert "t.A IN (?, ?, ?, ?)" in members.sql
        assert "VALUES" not in members.sql
        # the restricted Q_V starts from the distinct key list instead
        (query,) = generator.plan_delta_multi(cfd, "C", keys)
        key_list = "FROM (SELECT DISTINCT * FROM (VALUES (?), (?), (?), (?))) k\n"
        assert key_list in query.sql
        assert "CROSS JOIN r t ON t.A = k.column1\n" in query.sql
        assert query.parameters == ("a", "b", "c", "d")

    def test_multi_attribute_groups_use_row_values(self):
        generator = DetectionSqlGenerator(TWO_LHS_SCHEMA)
        cfd = _two_lhs_cfd()
        keys = [("x", "y"), ("u", "v")]
        (members,) = generator.covering_members_plans(cfd, "C", keys)
        assert "(t.A, t.B) IN (SELECT * FROM (VALUES (?, ?), (?, ?)))" in members.sql
        (query,) = generator.plan_delta_multi(cfd, "C", keys)
        assert "FROM (SELECT DISTINCT * FROM (VALUES (?, ?), (?, ?))) k\n" in query.sql
        assert "CROSS JOIN r t ON t.A = k.column1 AND t.B = k.column2\n" in query.sql
        # the group check: some member's RHS above the group's minimum
        assert (
            "EXISTS (SELECT 1 FROM r x WHERE x.A = k.column1 AND x.B = k.column2 "
            "AND x.C > (SELECT MIN(m.C) FROM r m WHERE m.A = k.column1 "
            "AND m.B = k.column2))"
        ) in query.sql
        assert "COUNT(DISTINCT" not in query.sql
        assert generator.flatten_group_keys([("x", "y")]) == ("x", "y")

    def test_restricted_qv_tests_constants_on_the_keys(self):
        # the key list binds first (it opens the statement), then the
        # pattern constants, which compare with the key columns
        schema = RelationSchema(
            "r",
            [AttributeDef("A"), AttributeDef("B", DataType.INTEGER), AttributeDef("C")],
        )
        generator = DetectionSqlGenerator(schema)
        cfd = parse_cfd("r: [A='x', B='5'] -> [C=_]").coerced_to(schema)
        (query,) = generator.plan_delta_multi(cfd, "C", [("x", 5), ("y", 6)])
        assert "WHERE k.column1 = ? AND k.column2 = ? AND EXISTS" in query
        assert query.parameters == ("x", 5, "y", 6, "x", 5)

    def test_chunking_respects_parameter_budget(self):
        generator = DetectionSqlGenerator(TWO_LHS_SCHEMA, max_parameters=20)
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
        generator = DetectionSqlGenerator(TWO_LHS_SCHEMA, max_parameters=10)
        cfd = parse_cfd("r: [A=_, B=_] -> [C='c1']")
        plans = generator.plan_delta_single(cfd, list(range(25)))
        assert len(plans) > 1
        for plan in plans:
            assert plan.sql.count("?") == len(plan.parameters) <= 10

    def test_empty_inputs_produce_no_plans(self):
        generator = DetectionSqlGenerator(TWO_LHS_SCHEMA)
        cfd = _two_lhs_cfd()
        assert generator.plan_delta_single(cfd, []) == []
        assert generator.plan_delta_multi(cfd, "C", []) == []
        # a wildcard-RHS-only CFD has no Q_C, so no single plans either
        assert generator.plan_delta_single(cfd, [1, 2]) == []

    def test_budget_too_small_for_one_item_raises(self):
        # silently emitting an over-budget statement would only defer the
        # failure to an opaque "too many SQL variables" execution error
        generator = DetectionSqlGenerator(TWO_LHS_SCHEMA, max_parameters=1)
        cfd = _two_lhs_cfd()  # each restricted group binds 2 values
        with pytest.raises(DetectionError, match="parameter budget"):
            generator.plan_delta_multi(cfd, "C", [("x", "y")])


TYPED_SCHEMA = RelationSchema(
    "orders",
    [
        AttributeDef("QUANTITY", DataType.INTEGER),
        AttributeDef("PRICE", DataType.FLOAT),
        AttributeDef("PAID", DataType.BOOLEAN),
        AttributeDef("PRODUCT"),
    ],
)


class TestTypedBinding:
    """Constants bind typed by their column; the data side is the bare column."""

    def test_constants_bind_typed_and_parameterised(self):
        generator = DetectionSqlGenerator(TYPED_SCHEMA)
        # text constants, as parsed: the generator types them itself, so a
        # hand-built caller binds what the detector's typed copy binds
        cfd = parse_cfd(
            "orders: [QUANTITY='5', PRICE='2.5', PAID='true'] -> [PRODUCT='gadget']"
        )
        (query,) = generator.plan_single_queries(cfd)
        assert "t.QUANTITY = ? AND t.PRICE = ? AND t.PAID = ?" in query.sql
        assert "(t.PRODUCT <> ? OR t.PRODUCT IS NULL)" in query.sql
        assert query.parameters == (5, 2.5, True, "gadget")
        assert [type(value) for value in query.parameters] == [int, float, bool, str]
        assert query.sql.count("?") == 4
        typed = cfd.coerced_to(TYPED_SCHEMA)
        (from_typed,) = generator.plan_single_queries(typed)
        assert from_typed.parameters == query.parameters

    def test_typed_rhs_constant_and_distinct_count_compare_stored_values(self):
        generator = DetectionSqlGenerator(TYPED_SCHEMA)
        single = parse_cfd("orders: [PRODUCT='gadget'] -> [PRICE='1e+16']")
        (query,) = generator.plan_single_queries(single)
        assert "(t.PRICE <> ? OR t.PRICE IS NULL)" in query.sql
        assert query.parameters == ("gadget", 1e16)
        multi = parse_cfd("orders: [PRODUCT=_] -> [PAID=_]")
        (window,) = generator.plan_multi_queries(multi)
        assert "HAVING COUNT(DISTINCT t.PAID) > 1" in window.sql
        (stats,) = generator.group_stats_plans(multi, "PAID", [("gadget",)])
        assert "COUNT(DISTINCT t.PAID) AS distinct_rhs" in stats.sql

    def test_no_statement_renders_a_column_as_text(self):
        generator = DetectionSqlGenerator(TYPED_SCHEMA)
        constants = [
            parse_cfd(text).coerced_to(TYPED_SCHEMA)
            for text in (
                "orders: [QUANTITY='5', PRICE='2.5'] -> [PAID='false']",
                "orders: [PAID='true'] -> [QUANTITY='3', PRICE='1e+16']",
            )
        ]
        grouped = [
            parse_cfd(f"orders: [{lhs}=_] -> [{rhs}=_]")
            for lhs in ("QUANTITY", "PRICE", "PAID")
            for rhs in ("QUANTITY", "PRICE", "PAID")
            if lhs != rhs
        ]
        keys = {"QUANTITY": (5,), "PRICE": (2.5,), "PAID": (True,)}
        statements = []
        for cfd in constants:
            statements += generator.plan_single_queries(cfd)
            statements += generator.plan_delta_single(cfd, [1, 2, 3])
            statements.append(generator.attr_freq_query(cfd, 0))
            subs = tuple(cfd.normalize())
            statements.append(generator.applicable_count_query(subs))
            statements.append(generator.applicable_tids_query(subs))
        for cfd in grouped:
            rhs, key = cfd.rhs[0], [keys[cfd.lhs[0]]]
            statements += generator.plan_multi_queries(cfd)
            statements += generator.plan_delta_multi(cfd, rhs, key)
            statements += generator.covering_members_plans(cfd, rhs, key)
            statements += generator.group_stats_plans(cfd, rhs, key)
            statements += generator.majority_value_plans(cfd, rhs, key)
            statements += generator.lhs_values_plans(cfd, [1])
            statements.append(generator.page_fetch_query(cfd, rhs, "eq"))
        statements += [generator.value_freq_query(name) for name in keys]
        statements += generator.row_fetch_plans([1, 2])
        assert len(statements) == 56
        for query in statements:
            assert "CAST(" not in query.sql.upper(), query.sql
            assert "PYSTR(" not in query.sql.upper(), query.sql

    def test_constant_that_does_not_coerce_raises_the_detector_error(self):
        generator = DetectionSqlGenerator(TYPED_SCHEMA)
        cfd = parse_cfd("orders: [QUANTITY='five'] -> [PRODUCT='gadget']")
        with pytest.raises(CfdSchemaError, match="not a"):
            generator.plan_single_queries(cfd)
        with pytest.raises(CfdSchemaError):
            cfd.coerced_to(TYPED_SCHEMA)

    def test_sqlite_multi_query_parameters_match_placeholders(self, customer_relation):
        generator = DetectionSqlGenerator(customer_relation.schema)
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
