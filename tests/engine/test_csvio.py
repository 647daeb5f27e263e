"""Tests for CSV/JSON import and export."""

import pytest

from repro.engine.csvio import (
    dump_csv,
    dump_json,
    infer_type,
    load_csv,
    load_csv_into,
    load_json,
)
from repro.engine.relation import Relation
from repro.engine.types import DataType, RelationSchema
from repro.errors import SchemaError

CSV_TEXT = """name,age,score,active,city
ann,30,1.5,true,EDI
bob,40,2.5,false,LDN
cat,,3.0,true,
"""


class TestInferType:
    def test_integers(self):
        assert infer_type(["1", "2", ""]) is DataType.INTEGER

    def test_floats(self):
        assert infer_type(["1.5", "2"]) is DataType.FLOAT

    def test_booleans(self):
        assert infer_type(["true", "false"]) is DataType.BOOLEAN

    def test_strings(self):
        assert infer_type(["abc", "1"]) is DataType.STRING

    def test_all_null_defaults_to_string(self):
        assert infer_type(["", None]) is DataType.STRING


class TestCsv:
    def test_load_infers_schema(self):
        relation = load_csv(CSV_TEXT, "people")
        assert relation.schema.attribute("age").dtype is DataType.INTEGER
        assert relation.schema.attribute("score").dtype is DataType.FLOAT
        assert relation.schema.attribute("active").dtype is DataType.BOOLEAN
        assert relation.schema.attribute("name").dtype is DataType.STRING
        assert len(relation) == 3

    def test_null_token_becomes_none(self):
        relation = load_csv(CSV_TEXT, "people")
        assert relation.value(2, "age") is None
        assert relation.value(2, "city") is None

    def test_load_without_inference(self):
        relation = load_csv(CSV_TEXT, "people", infer_types=False)
        assert relation.schema.attribute("age").dtype is DataType.STRING
        assert relation.value(0, "age") == "30"

    def test_load_with_explicit_schema(self):
        schema = RelationSchema.of("people", ["name", ("age", "int")])
        relation = load_csv(CSV_TEXT, "people", schema=schema)
        assert relation.attribute_names == ["name", "age"]

    def test_empty_csv_rejected(self):
        with pytest.raises(SchemaError):
            load_csv("name,age\n", "empty")

    def test_roundtrip(self, tmp_path):
        relation = load_csv(CSV_TEXT, "people")
        path = tmp_path / "out.csv"
        dump_csv(relation, path)
        reloaded = load_csv(path, "people")
        assert reloaded.to_list() == relation.to_list()

    def test_file_loading(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(CSV_TEXT)
        relation = load_csv(path, "people")
        assert len(relation) == 3


def _people(count):
    return "name,age,city\n" + "".join(f"p{i},{i},EDI\n" for i in range(count))


class TestLoadCost:
    """A CSV load reads the schema's name list a fixed number of times."""

    @pytest.fixture
    def name_lists(self, monkeypatch):
        calls = []
        names = RelationSchema.attribute_names

        def counting(schema):
            calls.append(schema.name)
            return names.fget(schema)

        monkeypatch.setattr(RelationSchema, "attribute_names", property(counting))
        return calls

    def _counts(self, name_lists, load):
        counts = []
        for rows in (3, 30):
            del name_lists[:]
            assert len(load(_people(rows))) == rows
            counts.append(len(name_lists))
        return counts

    def test_load_csv(self, name_lists):
        counts = self._counts(name_lists, lambda text: load_csv(text, "people"))
        assert counts[0] == counts[1]

    def test_load_csv_into(self, name_lists, sqlite_backend_factory):
        backend = sqlite_backend_factory()
        try:
            counts = self._counts(
                name_lists, lambda text: load_csv_into(backend, text, "people")
            )
            assert counts[0] == counts[1]
        finally:
            backend.close()


class TestJson:
    def test_roundtrip_preserves_schema_and_rows(self, tmp_path):
        relation = load_csv(CSV_TEXT, "people")
        path = tmp_path / "out.json"
        dump_json(relation, path)
        reloaded = load_json(path, "people")
        assert reloaded.to_list() == relation.to_list()
        assert reloaded.schema.attribute("age").dtype is DataType.INTEGER

    def test_roundtrip_from_text(self):
        relation = Relation.from_rows(
            RelationSchema.of("r", ["a", ("n", "int")]), [{"a": "x", "n": 1}]
        )
        text = dump_json(relation)
        reloaded = load_json(text, "r")
        assert reloaded.to_list() == [{"a": "x", "n": 1}]
