"""Tests for the database catalog."""

import pytest

from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema
from repro.errors import DuplicateRelationError, UnknownRelationError


@pytest.fixture
def database():
    db = Database("testdb")
    db.create_relation(
        RelationSchema.of("emp", ["name", ("salary", "int"), "dept"]),
        rows=[
            {"name": "ann", "salary": 10, "dept": "eng"},
            {"name": "bob", "salary": 20, "dept": "eng"},
            {"name": "cat", "salary": 30, "dept": "ops"},
        ],
    )
    return db


class TestCatalog:
    def test_create_and_lookup(self, database):
        assert database.has_relation("emp")
        assert len(database.relation("emp")) == 3

    def test_duplicate_create_rejected(self, database):
        with pytest.raises(DuplicateRelationError):
            database.create_relation(RelationSchema.of("emp", ["x"]))

    def test_replace_allowed(self, database):
        database.create_relation(RelationSchema.of("emp", ["x"]), replace=True)
        assert database.relation("emp").attribute_names == ["x"]

    def test_unknown_relation_raises(self, database):
        with pytest.raises(UnknownRelationError):
            database.relation("missing")

    def test_drop(self, database):
        database.drop_relation("emp")
        assert not database.has_relation("emp")
        with pytest.raises(UnknownRelationError):
            database.drop_relation("emp")

    def test_add_existing_relation_object(self, database):
        other = Relation(RelationSchema.of("other", ["a"]))
        database.add_relation(other)
        assert database.has_relation("other")
        with pytest.raises(DuplicateRelationError):
            database.add_relation(other)

    def test_relation_names_sorted(self, database):
        database.create_relation(RelationSchema.of("aaa", ["x"]))
        assert database.relation_names() == ["aaa", "emp"]

    def test_schema_summary(self, database):
        assert database.schema_summary() == {"emp": ["name", "salary", "dept"]}

