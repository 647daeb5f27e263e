"""Unit tests for the repair data sources and their generated plans.

The oracle-parity property (`test_resident_parity.py`) and the forbidden-read
pins (`test_resident_pins.py`) cover the end-to-end contract; these tests pin
the moving parts in isolation — the new `value_freq`/`group_stats`/`row_fetch`
plan builders, the closure bookkeeping, the tie-break ordering of the
aggregate frequency path, and the per-dtype decode on the way back.
"""

from collections import Counter

import pytest

from repro.backends.sqlite import SqliteBackend
from repro.core.cfd import CFD
from repro.core.parser import parse_cfd
from repro.core.pattern import PatternTuple
from repro.detection.sqlgen import DetectionSqlGenerator
from repro.engine.relation import Relation
from repro.engine.types import AttributeDef, DataType, RelationSchema
from repro.errors import DetectionError
from repro.repair.repairer import BatchRepairer
from repro.repair.source import (
    BackendRepairSource,
    NativeRepairSource,
    RepairDataSource,
    native_column_frequencies,
)


def _schema():
    return RelationSchema.of("r", ["A", "B", "C"])


def _relation(rows):
    return Relation.from_rows(_schema(), rows)


def _sqlite_with(rows, **options):
    backend = SqliteBackend(**options)
    backend.add_relation(_relation(rows))
    return backend


class TestProtocol:
    def test_base_source_is_abstract(self):
        source = RepairDataSource()
        for call in (
            source.attribute_names,
            lambda: source.load([]),
            source.original,
            source.column_frequencies,
        ):
            with pytest.raises(NotImplementedError):
                call()
        # the hooks are optional no-ops
        source.begin_round(None)
        source.note_change(None, 0, "A")

    def test_native_source_isolates_the_original(self):
        relation = _relation([{"A": "a", "B": "x", "C": "1"}])
        source = NativeRepairSource(relation)
        working = source.load([])
        working.update(0, {"B": "changed"})
        assert source.original() is relation
        assert relation.value(0, "B") == "x"
        assert source.attribute_names() == ["A", "B", "C"]

    def test_native_column_frequencies_skip_nulls(self):
        relation = _relation(
            [{"A": "a", "B": None, "C": "1"}, {"A": "a", "B": "x", "C": None}]
        )
        frequencies = native_column_frequencies(relation)
        assert frequencies["A"] == Counter({"a": 2})
        assert frequencies["B"] == Counter({"x": 1})
        assert frequencies["C"] == Counter({"1": 1})


class TestPlanBuilders:
    def test_value_freq_query_shape_and_cache(self):
        generator = DetectionSqlGenerator(_schema())
        query = generator.value_freq_query("A")
        assert query.kind == "value_freq"
        assert "GROUP BY" in query.sql and "MIN(t._tid)" in query.sql
        assert "IS NOT NULL" in query.sql
        assert generator.value_freq_query("A") is query  # plan cache hit

    def test_value_freq_query_rejects_unknown_attribute(self):
        generator = DetectionSqlGenerator(_schema())
        with pytest.raises(DetectionError, match="unknown attribute"):
            generator.value_freq_query("NOPE")

    def test_group_stats_query_shape(self):
        generator = DetectionSqlGenerator(_schema())
        cfd = parse_cfd("r: [A=_, B=_] -> [C=_]")
        query = generator.group_stats_query(cfd, "C", 2)
        assert query.kind == "group_stats"
        assert "COUNT(*) AS member_count" in query.sql
        assert "COUNT(DISTINCT" in query.sql
        assert "lhs_A" in query.sql and "lhs_B" in query.sql

    def test_group_stats_query_validation(self):
        generator = DetectionSqlGenerator(_schema())
        cfd = parse_cfd("r: [A=_] -> [B=_]")
        with pytest.raises(ValueError, match="at least 1"):
            generator.group_stats_query(cfd, "B", 0)
        constant_only = CFD(
            relation="r", lhs=(), rhs=("B",), patterns=(PatternTuple.of({"B": "x"}),)
        )
        with pytest.raises(ValueError, match="non-empty LHS"):
            generator.group_stats_query(constant_only, "B", 1)

    def test_row_fetch_query_shape_and_validation(self):
        generator = DetectionSqlGenerator(_schema())
        query = generator.row_fetch_query(3)
        assert query.kind == "row_fetch"
        assert query.sql.count("?") == 3
        assert "t._tid AS tid" in query.sql
        with pytest.raises(ValueError, match="at least 1"):
            generator.row_fetch_query(0)

    def test_group_stats_plans_chunk_to_the_parameter_budget(self):
        backend = _sqlite_with([], max_parameters=8)
        generator = DetectionSqlGenerator(
            backend.schema("r"), max_parameters=backend.max_parameters
        )
        cfd = parse_cfd("r: [A=_, B=_] -> [C=_]")
        keys = [(f"a{i}", f"b{i}") for i in range(9)]
        plans = generator.group_stats_plans(cfd, "C", keys)
        assert len(plans) > 1
        for plan in plans:
            assert len(plan.parameters) <= 8
        backend.close()

    def test_row_fetch_plans_pad_with_the_last_tid(self):
        backend = _sqlite_with(
            [{"A": str(i), "B": "x", "C": "y"} for i in range(5)], max_parameters=4
        )
        generator = DetectionSqlGenerator(
            backend.schema("r"), max_parameters=backend.max_parameters
        )
        plans = generator.row_fetch_plans([0, 1, 2, 3, 4])
        assert len(plans) == 2
        fetched = [row["tid"] for plan in plans for row in backend.execute(plan.sql, plan.parameters)]
        # padding repeats the final tid; callers dedup by tid
        assert sorted(set(fetched)) == [0, 1, 2, 3, 4]
        backend.close()


class TestBackendSource:
    CFD = "r: [A=_] -> [B=_]"

    def test_load_fetches_only_the_dirty_region(self):
        backend = _sqlite_with(
            [
                {"A": "a", "B": "x", "C": "1"},  # violates with t1
                {"A": "a", "B": "y", "C": "1"},
                {"A": "b", "B": "z", "C": "1"},  # clean group, never fetched
                {"A": "b", "B": "z", "C": "1"},
            ]
        )
        source = BackendRepairSource(backend, "r")
        working = source.load([parse_cfd(self.CFD)])
        assert sorted(tid for tid, _ in working.rows()) == [0, 1]
        assert source.stats["rows_fetched"] == 2
        assert source.last_sql  # SQL really ran
        backend.close()

    def test_original_requires_load(self):
        backend = _sqlite_with([])
        source = BackendRepairSource(backend, "r")
        with pytest.raises(RuntimeError, match="load"):
            source.original()
        with pytest.raises(RuntimeError, match="load"):
            source.column_frequencies()
        backend.close()

    def test_column_frequencies_break_ties_like_the_native_counter(self):
        rows = [
            {"A": "tie2", "B": "x", "C": None},
            {"A": "tie1", "B": "x", "C": None},
            {"A": "tie2", "B": None, "C": None},
            {"A": "tie1", "B": "y", "C": None},
        ]
        backend = _sqlite_with(rows)
        source = BackendRepairSource(backend, "r")
        source.load([parse_cfd(self.CFD)])
        resident = source.column_frequencies()
        native = native_column_frequencies(_relation(rows))
        for attribute in ("A", "B", "C"):
            assert resident[attribute] == native[attribute]
            # most_common order (the candidate ranking) must match too
            assert resident[attribute].most_common() == native[attribute].most_common()
        backend.close()

    def test_note_change_skips_null_and_inapplicable_keys(self):
        backend = _sqlite_with(
            [{"A": "a", "B": "x", "C": "1"}, {"A": "a", "B": "y", "C": "1"}]
        )
        source = BackendRepairSource(backend, "r")
        working = source.load([parse_cfd("r: [A='a'] -> [B=_]")])
        working.update(0, {"A": None})
        source.note_change(working, 0, "A")
        assert not source._pending  # NULL LHS belongs to no group
        working.update(0, {"A": "other"})
        source.note_change(working, 0, "A")
        assert not source._pending  # no pattern covers A='other'
        working.update(1, {"B": "z"})
        source.note_change(working, 1, "B")
        assert source._pending  # RHS change on an applicable key queues
        source.note_change(working, 1, "C")  # attribute outside the sub
        assert len(source._pending) == 1
        backend.close()

    def test_begin_round_expands_only_underfetched_groups(self):
        backend = _sqlite_with(
            [
                {"A": "a", "B": "x", "C": "1"},  # dirty pair, fetched by load
                {"A": "a", "B": "y", "C": "1"},
                {"A": "b", "B": "z", "C": "1"},  # clean group with 2 members
                {"A": "b", "B": "z", "C": "1"},
            ]
        )
        source = BackendRepairSource(backend, "r")
        working = source.load([parse_cfd(self.CFD)])
        # the planner moves t0 into the unfetched group 'b'
        working.update(0, {"A": "b"})
        source.note_change(working, 0, "A")
        # and touches the fully-fetched group 'a' (dismissed by count)
        working.update(1, {"B": "w"})
        source.note_change(working, 1, "B")
        source.begin_round(working)
        assert sorted(tid for tid, _ in working.rows()) == [0, 1, 2, 3]
        assert source.stats["groups_checked"] == 2
        assert source.stats["groups_expanded"] == 1
        # a second round with nothing pending is free
        before = list(source.last_sql)
        source.begin_round(working)
        assert source.last_sql == before
        backend.close()

    def test_boolean_columns_decode_on_the_way_back(self):
        schema = RelationSchema(
            "flags",
            [
                AttributeDef("A", DataType.STRING),
                AttributeDef("OK", DataType.BOOLEAN),
            ],
        )
        rows = [
            {"A": "g1", "OK": True},
            {"A": "g1", "OK": False},  # violates [A] -> [OK]
            {"A": "g2", "OK": True},
        ]
        relation = Relation.from_rows(schema, rows)
        backend = SqliteBackend()
        backend.add_relation(relation)
        cfds = [parse_cfd("flags: [A=_] -> [OK=_]")]
        native = BatchRepairer().repair(relation, cfds)
        source = BackendRepairSource(backend, "flags")
        resident = BatchRepairer().repair_with_source(source, cfds)
        assert [
            (c.tid, c.attribute, c.old_value, c.new_value) for c in resident.changes
        ] == [(c.tid, c.attribute, c.old_value, c.new_value) for c in native.changes]
        for change in resident.changes:
            assert isinstance(change.new_value, bool)
        assert source.column_frequencies()["OK"] == Counter({True: 2, False: 1})
        backend.close()
