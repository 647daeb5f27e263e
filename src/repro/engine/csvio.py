"""CSV and JSON import/export for relations.

Semandaq connects to existing relational data; in this reproduction, data
enters the engine either programmatically or through these loaders.  The CSV
loader can infer a schema (all-STRING by default, with optional numeric
inference) and the writers round-trip data for the examples and benchmarks.

:func:`load_csv_into` loads a CSV straight into a storage backend
(:mod:`repro.backends`) through its bulk-insert path — on the SQLite
backend that is a single ``executemany`` batch instead of per-row inserts.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import SchemaError
from .relation import Relation
from .types import AttributeDef, DataType, RelationSchema

PathLike = Union[str, Path]


def infer_type(values: Iterable[Optional[str]]) -> DataType:
    """Infer the narrowest :class:`DataType` that fits all string ``values``.

    Empty strings and ``None`` are treated as NULL and ignored.  Preference
    order is INTEGER, FLOAT, BOOLEAN, STRING.
    """
    non_null = [v for v in values if v not in (None, "")]
    if not non_null:
        return DataType.STRING

    def all_parse(parser) -> bool:
        for value in non_null:
            try:
                parser(value)
            except (ValueError, TypeError):
                return False
        return True

    if all_parse(int):
        return DataType.INTEGER
    if all_parse(float):
        return DataType.FLOAT
    lowered = {v.strip().lower() for v in non_null}
    if lowered <= {"true", "false", "t", "f", "yes", "no", "0", "1"} and lowered & {
        "true",
        "false",
        "t",
        "f",
        "yes",
        "no",
    }:
        return DataType.BOOLEAN
    return DataType.STRING


def _rows_from_csv_text(text: str) -> List[Dict[str, str]]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise SchemaError("CSV input has no header row")
    return [dict(row) for row in reader]


def _parse_csv(
    source: Union[PathLike, str],
    name: str,
    schema: Optional[RelationSchema],
    infer_types: bool,
    null_token: str,
) -> Tuple[RelationSchema, List[Dict[str, Optional[str]]]]:
    """Shared CSV front end: resolve the schema and normalise the rows.

    Returns the (possibly inferred) schema — always renamed to ``name`` —
    and the rows with ``null_token`` cells mapped to NULL and unknown
    columns dropped.  Both :func:`load_csv` and :func:`load_csv_into` build
    on this.
    """
    path = Path(source) if not (isinstance(source, str) and "\n" in source) else None
    text = path.read_text() if path is not None else str(source)
    raw_rows = _rows_from_csv_text(text)
    if schema is None:
        if not raw_rows:
            raise SchemaError("cannot infer a schema from an empty CSV")
        columns = list(raw_rows[0].keys())
        attrs: List[AttributeDef] = []
        for column in columns:
            dtype = (
                infer_type(row.get(column) for row in raw_rows)
                if infer_types
                else DataType.STRING
            )
            attrs.append(AttributeDef(column, dtype))
        schema = RelationSchema(name=name, attributes=attrs)
    elif schema.name != name:
        schema = RelationSchema(name=name, attributes=schema.attributes, key=schema.key)
    rows = [
        {
            key: (None if value == null_token or value is None else value)
            for key, value in raw.items()
            if key in schema
        }
        for raw in raw_rows
    ]
    return schema, rows


def load_csv(
    source: Union[PathLike, str],
    name: str,
    schema: Optional[RelationSchema] = None,
    infer_types: bool = True,
    null_token: str = "",
) -> Relation:
    """Load a CSV file (or CSV text) into a new :class:`Relation`.

    If ``schema`` is omitted, one is built from the header; column types are
    inferred from the data unless ``infer_types`` is false, in which case
    every column is STRING.  Cells equal to ``null_token`` become NULL.
    """
    schema, rows = _parse_csv(source, name, schema, infer_types, null_token)
    relation = Relation(schema)
    relation.insert_many(rows)
    return relation


def load_csv_into(
    backend,
    source: Union[PathLike, str],
    name: str,
    schema: Optional[RelationSchema] = None,
    infer_types: bool = True,
    null_token: str = "",
    replace: bool = True,
) -> List[int]:
    """Load a CSV file (or CSV text) directly into a storage backend.

    Schema handling matches :func:`load_csv`; the rows go through the
    backend's bulk-insert path (``executemany`` on SQLite) rather than an
    intermediate :class:`Relation`.  Returns the assigned tuple ids.

    ``backend`` is any :class:`repro.backends.base.StorageBackend`; the
    parameter is untyped here to keep the engine layer import-free of the
    backends package.
    """
    schema, rows = _parse_csv(source, name, schema, infer_types, null_token)
    backend.create_relation(schema, replace=replace)
    return backend.insert_many(name, rows)


def dump_csv(relation: Relation, destination: Optional[PathLike] = None) -> str:
    """Serialise ``relation`` to CSV text; also write it to ``destination`` if given."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=relation.attribute_names)
    writer.writeheader()
    for _tid, row in relation.rows():
        writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    text = buffer.getvalue()
    if destination is not None:
        Path(destination).write_text(text)
    return text


def load_json(source: Union[PathLike, str], name: str) -> Relation:
    """Load a relation from a JSON document produced by :func:`dump_json`."""
    path = Path(source) if not (isinstance(source, str) and source.lstrip().startswith("{")) else None
    text = path.read_text() if path is not None else str(source)
    document = json.loads(text)
    schema = RelationSchema.from_dict(document["schema"])
    schema = RelationSchema(name=name, attributes=schema.attributes, key=schema.key)
    relation = Relation(schema)
    relation.insert_many(document.get("rows", []))
    return relation


def dump_json(relation: Relation, destination: Optional[PathLike] = None) -> str:
    """Serialise ``relation`` (schema + rows) to a JSON document."""
    document = {
        "schema": relation.schema.to_dict(),
        "rows": relation.to_list(),
    }
    text = json.dumps(document, indent=2, sort_keys=True)
    if destination is not None:
        Path(destination).write_text(text)
    return text
