"""Tests for the in-memory relation and its tuple-id semantics."""

import pytest

from repro.engine.relation import Relation
from repro.engine.types import DataType, RelationSchema
from repro.errors import (
    ConstraintViolationError,
    SchemaError,
    TypeMismatchError,
    UnknownAttributeError,
    UnknownTupleError,
)


@pytest.fixture
def schema():
    return RelationSchema.of("people", ["name", ("age", "int"), "city"])


@pytest.fixture
def relation(schema):
    return Relation.from_rows(
        schema,
        [
            {"name": "ann", "age": 30, "city": "EDI"},
            {"name": "bob", "age": 40, "city": "LDN"},
            {"name": "cat", "age": 30, "city": "EDI"},
        ],
    )


class TestBasics:
    def test_len_and_tids(self, relation):
        assert len(relation) == 3
        assert relation.tids() == [0, 1, 2]

    def test_insert_returns_increasing_tids(self, relation):
        tid = relation.insert({"name": "dan", "age": 20, "city": "NYC"})
        assert tid == 3
        assert relation.get(3)["name"] == "dan"

    def test_insert_coerces_types(self, relation):
        tid = relation.insert({"name": "eve", "age": "55", "city": "PAR"})
        assert relation.value(tid, "age") == 55

    def test_get_returns_copy(self, relation):
        row = relation.get(0)
        row["name"] = "mutated"
        assert relation.value(0, "name") == "ann"

    def test_unknown_tid_raises(self, relation):
        with pytest.raises(UnknownTupleError):
            relation.get(99)

    def test_contains(self, relation):
        assert 0 in relation
        assert 99 not in relation


class TestMutation:
    def test_delete_removes_and_returns_row(self, relation):
        row = relation.delete(1)
        assert row["name"] == "bob"
        assert 1 not in relation
        assert len(relation) == 2

    def test_deleted_tid_not_reused(self, relation):
        relation.delete(2)
        new_tid = relation.insert({"name": "zoe", "age": 1, "city": "EDI"})
        assert new_tid == 3

    def test_update_returns_old_row(self, relation):
        old = relation.update(0, {"city": "GLA"})
        assert old["city"] == "EDI"
        assert relation.value(0, "city") == "GLA"

    def test_update_coerces(self, relation):
        relation.update(0, {"age": "31"})
        assert relation.value(0, "age") == 31

    def test_clear(self, relation):
        relation.clear()
        assert len(relation) == 0
        assert relation.insert({"name": "new", "age": 1, "city": "X"}) == 3


class TestKeyConstraint:
    def test_duplicate_key_rejected(self):
        schema = RelationSchema.of("users", ["id", "name"], key=["id"])
        relation = Relation(schema)
        relation.insert({"id": "u1", "name": "a"})
        with pytest.raises(ConstraintViolationError):
            relation.insert({"id": "u1", "name": "b"})

    def test_null_key_rejected(self):
        schema = RelationSchema.of("users", ["id", "name"], key=["id"])
        relation = Relation(schema)
        with pytest.raises(ConstraintViolationError):
            relation.insert({"name": "a"})

    def test_update_to_duplicate_key_rejected(self):
        schema = RelationSchema.of("users", ["id", "name"], key=["id"])
        relation = Relation(schema)
        relation.insert({"id": "u1", "name": "a"})
        relation.insert({"id": "u2", "name": "b"})
        with pytest.raises(ConstraintViolationError):
            relation.update(1, {"id": "u1"})

    def test_update_keeping_same_key_allowed(self):
        schema = RelationSchema.of("users", ["id", "name"], key=["id"])
        relation = Relation(schema)
        relation.insert({"id": "u1", "name": "a"})
        relation.update(0, {"name": "renamed"})
        assert relation.value(0, "name") == "renamed"


class TestInsertMany:
    @pytest.mark.parametrize(
        "bad, error",
        [
            ({"name": "x", "age": "old", "city": "EDI"}, TypeMismatchError),
            ({"name": "x", "age": 1, "zip": "EH1"}, UnknownAttributeError),
        ],
    )
    def test_a_failed_row_keeps_the_rows_before_it(self, relation, bad, error):
        relation.create_index(["city"])
        rows = [{"name": name, "age": 20, "city": "GLA"} for name in ("dan", "eve")]
        with pytest.raises(error):
            relation.insert_many(rows + [bad, {"name": "fay", "age": 9, "city": "GLA"}])
        assert relation.tids() == [0, 1, 2, 3, 4]
        assert relation.lookup(["city"], ["GLA"]) == [3, 4]
        assert relation.insert({"name": "gus", "age": 1, "city": "GLA"}) == 5

    def test_a_key_taken_earlier_in_the_batch_stops_the_load_there(self):
        schema = RelationSchema.of("users", ["id", "name"], key=["id"])
        relation = Relation(schema)
        rows = [{"id": "u1", "name": "a"}, {"id": "u2", "name": "b"}]
        with pytest.raises(ConstraintViolationError, match="duplicate key"):
            relation.insert_many(rows + [{"id": "u1", "name": "c"}, {"id": "u3"}])
        assert relation.to_list() == rows
        assert relation.lookup(["id"], ["u3"]) == []
        assert relation.insert_many([{"id": "u3", "name": "d"}]) == [2]
        assert relation.lookup(["id"], ["u3"]) == [2]


class TestQueriesAndIndexes:
    def test_select_predicate(self, relation):
        matches = relation.select(lambda row: row["age"] == 30)
        assert {tid for tid, _row in matches} == {0, 2}

    def test_distinct_values_excludes_null(self, relation):
        relation.insert({"name": "nul", "age": None, "city": "EDI"})
        assert set(relation.distinct_values("age")) == {30, 40}

    def test_lookup_uses_index(self, relation):
        assert relation.lookup(["city"], ["EDI"]) == [0, 2]
        index = relation.index_on(("city",))
        assert index is not None

    def test_index_maintained_on_update_and_delete(self, relation):
        relation.create_index(["city"])
        relation.update(0, {"city": "LDN"})
        assert relation.lookup(["city"], ["EDI"]) == [2]
        relation.delete(2)
        assert relation.lookup(["city"], ["EDI"]) == []

    def test_insert_at_rejects_negative_and_live_tids(self, relation):
        with pytest.raises(ConstraintViolationError, match="non-negative"):
            relation.insert_at(-1, {"name": "neg"})
        with pytest.raises(ConstraintViolationError, match="already live"):
            relation.insert_at(1, {"name": "dup"})
        assert len(relation) == 3

    def test_insert_at_advances_the_tid_counter(self, relation):
        relation.create_index(["city"])
        assert relation.insert_at(10, {"name": "dan", "city": "GLA"}) == 10
        assert relation.insert({"name": "eve"}) == 11
        assert relation.lookup(["city"], ["GLA"]) == [10]

    def test_copy_keeps_indexes(self, relation):
        relation.create_index(["city"])
        clone = relation.copy()
        clone.update(1, {"city": "EDI"})
        assert sorted(clone.lookup(["city"], ["EDI"])) == [0, 1, 2]
        assert sorted(relation.lookup(["city"], ["EDI"])) == [0, 2]
        relation.update(0, {"city": "GLA"})
        assert sorted(clone.lookup(["city"], ["EDI"])) == [0, 1, 2]

    def test_copy_is_independent(self, relation):
        clone = relation.copy()
        clone.update(0, {"name": "changed"})
        assert relation.value(0, "name") == "ann"
        assert clone.tids() == relation.tids()

    def test_copy_shares_rows_until_either_side_changes_them(self, relation):
        clone = relation.copy()
        # one dict per tuple, shared: a copy costs one map entry per tuple
        assert all(
            mine is theirs
            for (_tid, mine), (_tid2, theirs) in zip(
                relation.stored_rows(), clone.stored_rows()
            )
        )
        clone.update(0, {"name": "changed"})
        relation.update(1, {"name": "other"})
        assert relation.value(0, "name") == "ann"
        assert clone.value(1, "name") == "bob"
        # the rows either side hands out are copies, never the shared dicts
        clone.get(2)["name"] = "x"
        next(relation.rows())[1]["name"] = "x"
        relation.update(2, {"name": "cal"})["name"] = "x"
        clone.delete(2)["name"] = "x"
        assert relation.value(0, "name") == "ann"
        assert [row["name"] for row in relation.to_list()] == ["ann", "other", "cal"]
        assert clone.tids() == [0, 1]
        assert clone.value(1, "name") == "bob"

    def test_to_list_in_tid_order(self, relation):
        rows = relation.to_list()
        assert [row["name"] for row in rows] == ["ann", "bob", "cat"]


class TestStoredRowsAndCopies:
    def test_stored_rows_ascend_by_tid_and_do_not_copy(self, relation):
        relation.insert_at(9, {"name": "zed"})
        relation.insert_at(5, {"name": "kim"})
        stored = list(relation.stored_rows())
        assert [tid for tid, _row in stored] == [0, 1, 2, 5, 9]
        assert stored == list(relation.rows())
        # the stored dicts themselves, not copies (read-only by contract)
        assert stored[0][1] is next(relation.stored_rows())[1]
        assert stored[0][1] is not next(relation.rows())[1]

    def test_value_reads_the_row_and_rejects_unknown_names(self, relation):
        assert relation.value(1, "city") == "LDN"
        with pytest.raises(UnknownAttributeError):
            relation.value(1, "nope")
        with pytest.raises(UnknownTupleError):
            relation.value(42, "city")

    def test_insert_copy_takes_a_coerced_row_once(self, relation, schema, monkeypatch):
        twin = Relation(schema)
        twin.create_index(["city"])
        coerced = []
        coerce_row = RelationSchema.coerce_row

        def counting(self, row):
            coerced.append(row)
            return coerce_row(self, row)

        monkeypatch.setattr(RelationSchema, "coerce_row", counting)
        assert twin.insert_copy(relation, 1) == 1
        assert coerced == []
        assert twin.get(1) == relation.get(1)
        assert twin.lookup(["city"], ["LDN"]) == [1]
        twin.update(1, {"city": "GLA"})
        assert relation.value(1, "city") == "LDN"  # a copy, not the same dict
        with pytest.raises(ConstraintViolationError, match="already live"):
            twin.insert_copy(relation, 1)

    def test_insert_copy_requires_the_same_schema(self, relation):
        other = Relation(RelationSchema.of("people", ["name", ("age", "int"), "city"]))
        with pytest.raises(SchemaError):
            other.insert_copy(relation, 0)
