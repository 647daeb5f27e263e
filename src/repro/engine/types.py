"""Value types and coercion rules for the relational engine.

The engine supports a small set of scalar types that is sufficient for the
data-quality workloads in the paper: strings, integers, floats and booleans.
``None`` represents SQL NULL.  Attribute definitions pair a name with a type
and a nullability flag; :class:`RelationSchema` is an ordered collection of
attribute definitions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import SchemaError, TypeMismatchError, UnknownAttributeError


class DataType(enum.Enum):
    """Scalar types supported by the engine."""

    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        """Return the type whose name matches ``name`` (case-insensitive).

        Accepts a few SQL-ish aliases (``varchar``, ``text``, ``int``,
        ``double``, ``real``, ``bool``).
        """
        normalized = name.strip().lower()
        aliases = {
            "varchar": cls.STRING,
            "char": cls.STRING,
            "text": cls.STRING,
            "str": cls.STRING,
            "string": cls.STRING,
            "int": cls.INTEGER,
            "integer": cls.INTEGER,
            "bigint": cls.INTEGER,
            "smallint": cls.INTEGER,
            "float": cls.FLOAT,
            "double": cls.FLOAT,
            "real": cls.FLOAT,
            "numeric": cls.FLOAT,
            "decimal": cls.FLOAT,
            "bool": cls.BOOLEAN,
            "boolean": cls.BOOLEAN,
        }
        if normalized not in aliases:
            raise SchemaError(f"unknown data type name: {name!r}")
        return aliases[normalized]

    def python_types(self) -> Tuple[type, ...]:
        """Return the Python types accepted for this data type.

        The first is the type of a coerced value: :func:`coerce_value`
        returns a value of exactly that type unchanged.
        """
        if self is DataType.STRING:
            return (str,)
        if self is DataType.INTEGER:
            return (int,)
        if self is DataType.FLOAT:
            return (float, int)
        return (bool,)


def coerce_value(value: Any, dtype: DataType) -> Any:
    """Coerce ``value`` to ``dtype``, raising :class:`TypeMismatchError`.

    ``None`` (NULL) passes through unchanged.  Strings are parsed for the
    numeric and boolean types so CSV-loaded data works naturally.
    """
    if value is None:
        return None
    if dtype is DataType.STRING:
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)
    if dtype is DataType.INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value.strip())
            except ValueError as exc:
                raise TypeMismatchError(f"cannot coerce {value!r} to INTEGER") from exc
        raise TypeMismatchError(f"cannot coerce {value!r} to INTEGER")
    if dtype is DataType.FLOAT:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError as exc:
                raise TypeMismatchError(f"cannot coerce {value!r} to FLOAT") from exc
        raise TypeMismatchError(f"cannot coerce {value!r} to FLOAT")
    # BOOLEAN
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "t", "1", "yes"):
            return True
        if lowered in ("false", "f", "0", "no"):
            return False
    raise TypeMismatchError(f"cannot coerce {value!r} to BOOLEAN")


@dataclass(frozen=True)
class AttributeDef:
    """Definition of a single attribute (column) of a relation."""

    name: str
    dtype: DataType = DataType.STRING
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError("attribute name must be a non-empty string")

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` for storage under this attribute."""
        if value is None:
            if not self.nullable:
                raise TypeMismatchError(f"attribute {self.name!r} is NOT NULL")
            return None
        return coerce_value(value, self.dtype)


@dataclass
class RelationSchema:
    """An ordered collection of attribute definitions with a relation name."""

    name: str
    attributes: List[AttributeDef] = field(default_factory=list)
    key: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("relation name must be non-empty")
        by_name: Dict[str, AttributeDef] = {}
        for attr in self.attributes:
            if attr.name in by_name:
                raise SchemaError(
                    f"duplicate attribute {attr.name!r} in relation {self.name!r}"
                )
            by_name[attr.name] = attr
        for key_attr in self.key:
            if key_attr not in by_name:
                raise SchemaError(
                    f"key attribute {key_attr!r} not present in relation {self.name!r}"
                )
        # Built once: a schema's attributes are not changed after construction.
        self._by_name = by_name
        self._coercion_plan = tuple(
            (attr.name, attr.dtype.python_types()[0], attr.coerce)
            for attr in self.attributes
        )

    # -- construction helpers ------------------------------------------------

    @classmethod
    def of(
        cls,
        name: str,
        columns: Sequence[Any],
        key: Sequence[str] = (),
    ) -> "RelationSchema":
        """Build a schema from a compact column description.

        ``columns`` may contain plain strings (STRING attributes), ``(name,
        type)`` pairs where ``type`` is a :class:`DataType` or a type name,
        or :class:`AttributeDef` instances.
        """
        attrs: List[AttributeDef] = []
        for col in columns:
            if isinstance(col, AttributeDef):
                attrs.append(col)
            elif isinstance(col, str):
                attrs.append(AttributeDef(col))
            elif isinstance(col, (tuple, list)) and len(col) == 2:
                colname, dtype = col
                if isinstance(dtype, str):
                    dtype = DataType.from_name(dtype)
                attrs.append(AttributeDef(colname, dtype))
            else:
                raise SchemaError(f"cannot interpret column description: {col!r}")
        return cls(name=name, attributes=attrs, key=tuple(key))

    # -- lookups ---------------------------------------------------------------

    @property
    def attribute_names(self) -> List[str]:
        """Names of all attributes, in declaration order."""
        return [attr.name for attr in self.attributes]

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._by_name

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self):
        return iter(self.attributes)

    def attribute(self, name: str) -> AttributeDef:
        """Return the definition of attribute ``name``."""
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownAttributeError(self.name, name) from None

    def index_of(self, name: str) -> int:
        """Return the positional index of attribute ``name``."""
        for i, attr in enumerate(self.attributes):
            if attr.name == name:
                return i
        raise UnknownAttributeError(self.name, name)

    def project(self, names: Iterable[str]) -> "RelationSchema":
        """Return a new schema containing only ``names`` (in the given order)."""
        return RelationSchema(
            name=self.name,
            attributes=[self.attribute(n) for n in names],
        )

    # -- row handling ----------------------------------------------------------

    def coerce_row(self, row: Dict[str, Any]) -> Dict[str, Any]:
        """Validate and coerce a row dict against this schema.

        Missing attributes become NULL (if nullable); unknown attributes raise.
        A value whose type is exactly its attribute's stored type (``str``,
        ``int``, ``float`` or ``bool`` for STRING, INTEGER, FLOAT or
        BOOLEAN) is kept as it is, since :meth:`AttributeDef.coerce` would
        return it unchanged.  Every other value, ``None`` included, goes
        through :meth:`AttributeDef.coerce`: NOT NULL checks, the parsing of
        numeric and boolean text and every cross-type conversion stay
        there.  The schema builds the plan of these checks once.
        """
        out: Dict[str, Any] = {}
        for name, stored_type, coerce in self._coercion_plan:
            value = row.get(name)
            out[name] = value if type(value) is stored_type else coerce(value)
        if not row.keys() <= out.keys():
            unknown = [name for name in row if name not in out]
            raise UnknownAttributeError(self.name, sorted(unknown)[0])
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Serialise the schema to a JSON-friendly dict."""
        return {
            "name": self.name,
            "attributes": [
                {"name": a.name, "type": a.dtype.value, "nullable": a.nullable}
                for a in self.attributes
            ],
            "key": list(self.key),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RelationSchema":
        """Deserialise a schema produced by :meth:`to_dict`."""
        attrs = [
            AttributeDef(
                a["name"],
                DataType.from_name(a.get("type", "string")),
                a.get("nullable", True),
            )
            for a in data.get("attributes", [])
        ]
        return cls(name=data["name"], attributes=attrs, key=tuple(data.get("key", ())))


def values_equal(left: Any, right: Any) -> bool:
    """SQL-style equality used throughout the engine.

    NULL is never equal to anything (including NULL); numeric values compare
    across int/float.
    """
    if left is None or right is None:
        return False
    if isinstance(left, bool) or isinstance(right, bool):
        return left is right if isinstance(left, bool) and isinstance(right, bool) else False
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left) == float(right)
    return left == right


def compare_values(left: Any, right: Any) -> Optional[int]:
    """Three-way comparison with SQL NULL semantics.

    Returns -1/0/+1, or ``None`` when either side is NULL or the values are
    not comparable.
    """
    if left is None or right is None:
        return None
    try:
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            lf, rf = float(left), float(right)
            return (lf > rf) - (lf < rf)
        if isinstance(left, str) and isinstance(right, str):
            return (left > right) - (left < right)
        if isinstance(left, bool) and isinstance(right, bool):
            return (left > right) - (left < right)
    except TypeError:
        return None
    return None
