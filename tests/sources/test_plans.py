"""Plan-shape tests for the tuple-source aggregate plans.

``majority_value`` / ``attr_freq`` / ``page_fetch`` are the three statement
kinds the shared read layer (``repro.sources``) adds on top of the repair
split's ``value_freq``/``group_stats``/``covering_members``/``row_fetch``:
the resident auditor's applicability counts, the explorer's drill-down
histograms and the keyset-paged tuple listings all compile to them.  The
end-to-end contract lives in ``test_tuple_source.py`` (oracle parity) and
the audit/explorer forbidden-read pins; here the generated SQL itself is
pinned — shapes, plan caching, validation and budget chunking.
"""

import pytest

from repro.backends.sqlite import SqliteBackend
from repro.core.cfd import CFD
from repro.core.parser import parse_cfd
from repro.core.pattern import PatternTuple
from repro.detection.sqlgen import DetectionSqlGenerator
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema


def _schema():
    return RelationSchema.of("r", ["A", "B", "C"])


def _relation(rows):
    return Relation.from_rows(_schema(), rows)


def _sqlite_with(rows, **options):
    backend = SqliteBackend(**options)
    backend.add_relation(_relation(rows))
    return backend


def _constant_only():
    return CFD(
        relation="r", lhs=(), rhs=("B",), patterns=(PatternTuple.of({"B": "x"}),)
    )


class TestMajorityValueQuery:
    def test_shape_and_cache(self):
        generator = DetectionSqlGenerator(_schema())
        cfd = parse_cfd("r: [A=_, B=_] -> [C=_]")
        query = generator.majority_value_query(cfd, "C", 2)
        assert query.kind == "majority_value"
        assert query.rhs_attribute == "C"
        assert "GROUP BY" in query.sql
        assert "AS value" in query.sql and "COUNT(*) AS freq" in query.sql
        assert "lhs_A" in query.sql and "lhs_B" in query.sql
        assert generator.majority_value_query(cfd, "C", 2) is query
        assert generator.majority_value_query(cfd, "C", 3) is not query

    def test_keeps_the_null_bucket(self):
        # no RHS IS NOT NULL guard: the NULL bucket is part of the histogram
        generator = DetectionSqlGenerator(_schema())
        cfd = parse_cfd("r: [A=_] -> [C=_]")
        query = generator.majority_value_query(cfd, "C", 1)
        assert "t.C IS NOT NULL" not in query.sql

    def test_validation(self):
        generator = DetectionSqlGenerator(_schema())
        cfd = parse_cfd("r: [A=_] -> [C=_]")
        with pytest.raises(ValueError, match="at least 1"):
            generator.majority_value_query(cfd, "C", 0)
        with pytest.raises(ValueError, match="non-empty LHS"):
            generator.majority_value_query(_constant_only(), "B", 1)

    def test_plans_chunk_to_the_parameter_budget(self):
        rows = [
            {"A": f"a{i}", "B": f"b{i}", "C": "x" if i % 2 else None}
            for i in range(9)
        ]
        backend = _sqlite_with(rows, max_parameters=8)
        try:
            generator = DetectionSqlGenerator(
                backend.schema("r"), max_parameters=backend.max_parameters
            )
            cfd = parse_cfd("r: [A=_, B=_] -> [C=_]")
            keys = [(f"a{i}", f"b{i}") for i in range(9)]
            plans = generator.majority_value_plans(cfd, "C", keys)
            assert len(plans) == 3  # 4 + 4 + 1 keys at 2 params per key
            assert all(len(plan.parameters) <= 8 for plan in plans)
            histogram = {}
            for plan in plans:
                for row in backend.execute(plan.sql, plan.parameters):
                    key = (row["lhs_A"], row["lhs_B"])
                    histogram.setdefault(key, {})[row["value"]] = row["freq"]
            assert histogram == {
                (f"a{i}", f"b{i}"): {("x" if i % 2 else None): 1} for i in range(9)
            }
        finally:
            backend.close()

    def test_plans_empty_for_no_keys(self):
        generator = DetectionSqlGenerator(_schema())
        cfd = parse_cfd("r: [A=_] -> [C=_]")
        assert generator.majority_value_plans(cfd, "C", []) == []


class TestAttrFreqQuery:
    def test_shape_and_cache(self):
        generator = DetectionSqlGenerator(_schema())
        cfd = parse_cfd("r: [A=_, B=_] -> [C=_]")
        query = generator.attr_freq_query(cfd, 0)
        assert query.kind == "attr_freq"
        assert query.pattern_index == 0
        assert "GROUP BY" in query.sql
        assert "lhs_A" in query.sql and "COUNT(*) AS freq" in query.sql
        assert "IS NOT NULL" in query.sql  # wildcard positions guard non-NULL
        assert generator.attr_freq_query(cfd, 0) is query

    def test_pattern_constants_restrict_the_scan(self):
        generator = DetectionSqlGenerator(_schema())
        cfd = parse_cfd("r: [A='x', B=_] -> [C=_] ; [A=_, B=_] -> [C=_]")
        constant = generator.attr_freq_query(cfd, 0)
        wildcard = generator.attr_freq_query(cfd, 1)
        assert constant is not wildcard
        # pattern constants travel as bound parameters
        assert "t.A = ?" in constant.sql and constant.parameters == ("x",)
        assert wildcard.parameters == ()

    def test_validation(self):
        generator = DetectionSqlGenerator(_schema())
        with pytest.raises(ValueError, match="non-empty LHS"):
            generator.attr_freq_query(_constant_only(), 0)


class TestApplicableQueries:
    def _subs(self, *specs):
        subs = []
        for index, spec in enumerate(specs):
            subs.extend(parse_cfd(f"r: {spec}", name=f"sub{index}").normalize())
        return tuple(subs)

    def test_count_query_shape_and_cache(self):
        generator = DetectionSqlGenerator(_schema())
        subs = self._subs("[A='a'] -> [C='c']", "[B='b'] -> [C='c']")
        query = generator.applicable_count_query(subs)
        assert query.kind == "attr_freq"
        assert "COUNT(*) AS freq" in query.sql
        assert " OR " in query.sql  # one disjunct per sub-CFD
        assert generator.applicable_count_query(subs) is query

    def test_tids_query_shape(self):
        generator = DetectionSqlGenerator(_schema())
        subs = self._subs("[A='a'] -> [C='c']")
        query = generator.applicable_tids_query(subs)
        assert "t._tid AS tid" in query.sql
        assert "COUNT" not in query.sql

    def test_validation(self):
        generator = DetectionSqlGenerator(_schema())
        with pytest.raises(ValueError, match="at least one sub-CFD"):
            generator.applicable_count_query(())
        with pytest.raises(ValueError, match="at least one sub-CFD"):
            generator.applicable_tids_query(())

    def test_chunks_follow_the_parameter_budget(self):
        backend = _sqlite_with([], max_parameters=8)
        try:
            generator = DetectionSqlGenerator(
                backend.schema("r"), max_parameters=backend.max_parameters
            )
            # each sub binds two pattern constants; 5 subs = 10 > 8
            subs = self._subs(
                *[f"[A='a{i}', B='b{i}'] -> [C=_]" for i in range(5)]
            )
            chunks = generator.applicable_sub_chunks(subs)
            assert [len(chunk) for chunk in chunks] == [4, 1]
            assert [sub for chunk in chunks for sub in chunk] == list(subs)
        finally:
            backend.close()

    def test_chunks_follow_the_or_term_cap(self):
        # 450 binds fit the 999-parameter floor, but SQLite's expression
        # depth cap bounds the OR chain at max_or_terms disjuncts
        generator = DetectionSqlGenerator(_schema())
        subs = self._subs(*[f"[A='a{i}'] -> [C=_]" for i in range(450)])
        chunks = generator.applicable_sub_chunks(subs)
        assert [len(chunk) for chunk in chunks] == [200, 200, 50]


class TestPageFetchQuery:
    def test_unrestricted_shape_and_cache(self):
        generator = DetectionSqlGenerator(_schema())
        query = generator.page_fetch_query(page_size=50)
        assert query.kind == "page_fetch"
        assert "t._tid > ?" in query.sql
        assert "ORDER BY t._tid" in query.sql
        assert "LIMIT 50" in query.sql
        assert "t._tid AS tid" in query.sql
        assert generator.page_fetch_query(page_size=50) is query
        assert generator.page_fetch_query(page_size=25) is not query

    def test_group_and_rhs_restrictions(self):
        generator = DetectionSqlGenerator(_schema())
        cfd = parse_cfd("r: [A=_] -> [C=_]")
        grouped = generator.page_fetch_query(cfd, page_size=10)
        assert "t.A" in grouped.sql
        eq = generator.page_fetch_query(
            cfd, rhs_attribute="C", rhs_filter="eq", page_size=10
        )
        assert "t.C = ?" in eq.sql
        null = generator.page_fetch_query(
            cfd, rhs_attribute="C", rhs_filter="null", page_size=10
        )
        assert "t.C IS NULL" in null.sql

    def test_validation(self):
        generator = DetectionSqlGenerator(_schema())
        cfd = parse_cfd("r: [A=_] -> [C=_]")
        with pytest.raises(ValueError, match="at least 1"):
            generator.page_fetch_query(page_size=0)
        with pytest.raises(ValueError, match="unknown rhs_filter"):
            generator.page_fetch_query(cfd, rhs_attribute="C", rhs_filter="lt")
        with pytest.raises(ValueError, match="needs an rhs_attribute"):
            generator.page_fetch_query(cfd, rhs_filter="eq")
