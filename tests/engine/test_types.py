"""Tests for value types, coercion and relation schemas."""

import pytest

from repro.engine.types import (
    AttributeDef,
    DataType,
    RelationSchema,
    coerce_value,
    compare_values,
    values_equal,
)
from repro.errors import SchemaError, TypeMismatchError, UnknownAttributeError


class TestDataType:
    def test_from_name_aliases(self):
        assert DataType.from_name("varchar") is DataType.STRING
        assert DataType.from_name("TEXT") is DataType.STRING
        assert DataType.from_name("int") is DataType.INTEGER
        assert DataType.from_name("double") is DataType.FLOAT
        assert DataType.from_name("bool") is DataType.BOOLEAN

    def test_from_name_unknown_raises(self):
        with pytest.raises(SchemaError):
            DataType.from_name("blob")

    def test_python_types(self):
        assert str in DataType.STRING.python_types()
        assert int in DataType.INTEGER.python_types()

    def test_float_accepts_ints_and_boolean_only_bools(self):
        assert DataType.FLOAT.python_types() == (float, int)
        assert DataType.BOOLEAN.python_types() == (bool,)


class TestCoerceValue:
    def test_null_passes_through(self):
        assert coerce_value(None, DataType.INTEGER) is None

    def test_string_coercion(self):
        assert coerce_value(42, DataType.STRING) == "42"
        assert coerce_value(True, DataType.STRING) == "true"

    def test_integer_from_string(self):
        assert coerce_value(" 17 ", DataType.INTEGER) == 17

    def test_integer_from_whole_float(self):
        assert coerce_value(3.0, DataType.INTEGER) == 3

    def test_integer_rejects_fractional_string(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("3.5", DataType.INTEGER)

    def test_float_from_string(self):
        assert coerce_value("2.5", DataType.FLOAT) == 2.5

    def test_float_rejects_garbage(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("abc", DataType.FLOAT)

    def test_boolean_from_strings(self):
        assert coerce_value("yes", DataType.BOOLEAN) is True
        assert coerce_value("0", DataType.BOOLEAN) is False

    def test_boolean_rejects_other(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("maybe", DataType.BOOLEAN)

    @pytest.mark.parametrize(
        "value, dtype, expected",
        [
            (True, DataType.INTEGER, 1),
            (7, DataType.INTEGER, 7),
            (False, DataType.FLOAT, 0.0),
            (3, DataType.FLOAT, 3.0),
            (1, DataType.BOOLEAN, True),
            (0, DataType.BOOLEAN, False),
            (" No ", DataType.BOOLEAN, False),
            (2.5, DataType.STRING, "2.5"),
        ],
    )
    def test_cross_type_coercions(self, value, dtype, expected):
        coerced = coerce_value(value, dtype)
        assert coerced == expected
        assert type(coerced) is type(expected)

    @pytest.mark.parametrize(
        "value, dtype",
        [
            (2.5, DataType.INTEGER),
            ([1], DataType.INTEGER),
            (object(), DataType.FLOAT),
            (2, DataType.BOOLEAN),
            (1.0, DataType.BOOLEAN),
        ],
    )
    def test_uncoercible_values_raise(self, value, dtype):
        with pytest.raises(TypeMismatchError):
            coerce_value(value, dtype)


class TestAttributeDef:
    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            AttributeDef("")

    def test_not_null_enforced(self):
        attr = AttributeDef("A", DataType.STRING, nullable=False)
        with pytest.raises(TypeMismatchError):
            attr.coerce(None)

    def test_nullable_accepts_none(self):
        assert AttributeDef("A").coerce(None) is None


class TestRelationSchema:
    def test_schema_needs_a_name(self):
        with pytest.raises(SchemaError, match="non-empty"):
            RelationSchema.of("", ["A"])

    def test_of_rejects_uninterpretable_columns(self):
        with pytest.raises(SchemaError, match="column description"):
            RelationSchema.of("r", [("A", "int", "extra")])

    def test_len_and_iteration_follow_declaration_order(self):
        schema = RelationSchema.of("r", ["B", ("A", "int")])
        assert len(schema) == 2
        assert [attr.name for attr in schema] == ["B", "A"]
        assert [attr.dtype for attr in schema] == [DataType.STRING, DataType.INTEGER]

    def test_of_mixed_column_specs(self):
        schema = RelationSchema.of("r", ["A", ("B", "int"), AttributeDef("C", DataType.FLOAT)])
        assert schema.attribute_names == ["A", "B", "C"]
        assert schema.attribute("B").dtype is DataType.INTEGER

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", [AttributeDef("A"), AttributeDef("A")])

    def test_key_must_exist(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", [AttributeDef("A")], key=("B",))

    def test_index_of_and_contains(self):
        schema = RelationSchema.of("r", ["A", "B"])
        assert schema.index_of("B") == 1
        assert "A" in schema
        assert "Z" not in schema

    def test_unknown_attribute_lookup(self):
        schema = RelationSchema.of("r", ["A"])
        with pytest.raises(UnknownAttributeError):
            schema.attribute("missing")

    def test_project_preserves_order(self):
        schema = RelationSchema.of("r", ["A", "B", "C"])
        assert schema.project(["C", "A"]).attribute_names == ["C", "A"]

    def test_coerce_row_fills_missing_with_null(self):
        schema = RelationSchema.of("r", ["A", ("B", "int")])
        assert schema.coerce_row({"B": "5"}) == {"A": None, "B": 5}

    def test_coerce_row_rejects_unknown(self):
        schema = RelationSchema.of("r", ["A"])
        with pytest.raises(UnknownAttributeError):
            schema.coerce_row({"A": "x", "Z": 1})

    def test_dict_roundtrip(self):
        schema = RelationSchema.of("r", ["A", ("B", "int")], key=["A"])
        rebuilt = RelationSchema.from_dict(schema.to_dict())
        assert rebuilt.attribute_names == schema.attribute_names
        assert rebuilt.key == ("A",)
        assert rebuilt.attribute("B").dtype is DataType.INTEGER


class TestValueComparison:
    def test_null_never_equal(self):
        assert not values_equal(None, None)
        assert not values_equal(None, 1)

    def test_numeric_cross_type_equality(self):
        assert values_equal(1, 1.0)

    def test_bool_only_equal_to_bool(self):
        assert values_equal(True, True)
        assert not values_equal(True, 1)

    def test_compare_values_orders_numbers_and_strings(self):
        assert compare_values(1, 2) == -1
        assert compare_values("b", "a") == 1
        assert compare_values(3, 3.0) == 0

    def test_compare_values_null_or_mixed_is_none(self):
        assert compare_values(None, 1) is None
        assert compare_values("a", 1) is None
