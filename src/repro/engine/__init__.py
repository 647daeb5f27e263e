"""Relational engine substrate: typed relations, indexes, CSV/JSON I/O.

This package holds the working copy of the data to be cleaned: the native
paths (repair, audit, exploration, incremental monitoring and the native
detection oracle) run on its :class:`Relation` objects.  The SQL the error
detector generates from CFDs runs on a storage backend instead (the
"Database Servers" layer of the paper's Fig. 1, :mod:`repro.backends`).
"""

from .csvio import dump_csv, dump_json, load_csv, load_json
from .database import Database
from .index import HashIndex
from .relation import Relation
from .types import AttributeDef, DataType, RelationSchema

__all__ = [
    "AttributeDef",
    "DataType",
    "Database",
    "HashIndex",
    "Relation",
    "RelationSchema",
    "dump_csv",
    "dump_json",
    "load_csv",
    "load_json",
]
