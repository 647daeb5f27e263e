"""In-memory relations with stable tuple identifiers.

A :class:`Relation` stores rows as dictionaries keyed by attribute name and
assigns each row a stable integer tuple id (``tid``).  Tuple ids are what the
error detector, auditor and cleanser use to refer to tuples, mirroring the
row identifiers a DBMS would expose.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConstraintViolationError, SchemaError, UnknownTupleError
from .index import HashIndex
from .types import AttributeDef, DataType, RelationSchema


class Relation:
    """A mutable, typed, in-memory relation."""

    def __init__(self, schema: RelationSchema):
        self.schema = schema
        self._rows: Dict[int, Dict[str, Any]] = {}
        self._next_tid = 0
        self._indexes: Dict[Tuple[str, ...], HashIndex] = {}
        if schema.key:
            self.create_index(schema.key)

    # -- basic properties -------------------------------------------------------

    @property
    def name(self) -> str:
        """The relation name from its schema."""
        return self.schema.name

    @property
    def attribute_names(self) -> List[str]:
        """Attribute names in declaration order."""
        return self.schema.attribute_names

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, tid: int) -> bool:
        return tid in self._rows

    def tids(self) -> List[int]:
        """Return all live tuple ids (ascending)."""
        return sorted(self._rows)

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: RelationSchema,
        rows: Iterable[Dict[str, Any]],
    ) -> "Relation":
        """Build a relation from an iterable of row dicts."""
        relation = cls(schema)
        for row in rows:
            relation.insert(row)
        return relation

    @classmethod
    def from_tid_rows(
        cls,
        schema: RelationSchema,
        pairs: Iterable[Tuple[int, Dict[str, Any]]],
    ) -> "Relation":
        """Build a relation from ``(tid, row)`` pairs, preserving the tids.

        Storage backends use this to materialise a stored relation without
        renumbering its tuples (tids may contain gaps after deletions).
        """
        relation = cls(schema)
        for tid, row in pairs:
            relation.insert_at(tid, dict(row))
        return relation

    def copy(self) -> "Relation":
        """Return a deep copy preserving tuple ids and indexes."""
        clone = Relation(self.schema)
        clone._rows = {tid: dict(row) for tid, row in self._rows.items()}
        clone._next_tid = self._next_tid
        clone._indexes = {
            attrs: index.copy() for attrs, index in self._indexes.items()
        }
        return clone

    # -- mutation ----------------------------------------------------------------

    def insert(self, row: Dict[str, Any]) -> int:
        """Insert ``row`` (coerced against the schema) and return its tid."""
        coerced = self.schema.coerce_row(row)
        self._check_key(coerced, exclude_tid=None)
        tid = self._next_tid
        self._next_tid += 1
        self._rows[tid] = coerced
        for index in self._indexes.values():
            index.add(tid, coerced)
        return tid

    def insert_many(self, rows: Iterable[Dict[str, Any]]) -> List[int]:
        """Insert every row in ``rows`` and return the assigned tids."""
        return [self.insert(row) for row in rows]

    def insert_at(self, tid: int, row: Dict[str, Any]) -> int:
        """Insert ``row`` under the caller-chosen tuple id ``tid``.

        Storage backends mirroring another store use this to keep tuple ids
        aligned across copies.  The tid must not be live; the internal tid
        counter advances past it so later plain inserts never collide.
        """
        if tid < 0:
            raise ConstraintViolationError(f"tuple ids must be non-negative, got {tid}")
        if tid in self._rows:
            raise ConstraintViolationError(
                f"tuple id {tid} is already live in relation {self.name!r}"
            )
        coerced = self.schema.coerce_row(row)
        self._check_key(coerced, exclude_tid=None)
        self._rows[tid] = coerced
        self._next_tid = max(self._next_tid, tid + 1)
        for index in self._indexes.values():
            index.add(tid, coerced)
        return tid

    def delete(self, tid: int) -> Dict[str, Any]:
        """Delete tuple ``tid`` and return its former row."""
        row = self._require(tid)
        del self._rows[tid]
        for index in self._indexes.values():
            index.remove(tid, row)
        return row

    def update(self, tid: int, changes: Dict[str, Any]) -> Dict[str, Any]:
        """Apply ``changes`` (attribute -> new value) to tuple ``tid``.

        Returns the previous row contents.
        """
        old_row = self._require(tid)
        new_row = dict(old_row)
        for attr_name, value in changes.items():
            attr = self.schema.attribute(attr_name)
            new_row[attr_name] = attr.coerce(value)
        self._check_key(new_row, exclude_tid=tid)
        self._rows[tid] = new_row
        for index in self._indexes.values():
            index.update(tid, old_row, new_row)
        return old_row

    def clear(self) -> None:
        """Remove every tuple (tuple ids are not reused)."""
        self._rows.clear()
        for index in self._indexes.values():
            index.clear()

    # -- access ------------------------------------------------------------------

    def get(self, tid: int) -> Dict[str, Any]:
        """Return a copy of tuple ``tid``."""
        return dict(self._require(tid))

    def value(self, tid: int, attribute: str) -> Any:
        """Return a single attribute value of tuple ``tid``."""
        self.schema.attribute(attribute)
        return self._require(tid).get(attribute)

    def rows(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Iterate over ``(tid, row)`` pairs; rows are copies."""
        for tid in sorted(self._rows):
            yield tid, dict(self._rows[tid])

    def to_list(self) -> List[Dict[str, Any]]:
        """Return all rows (copies) in tid order, without tids."""
        return [dict(self._rows[tid]) for tid in sorted(self._rows)]

    def select(
        self, predicate: Callable[[Dict[str, Any]], bool]
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """Return ``(tid, row)`` pairs for rows satisfying ``predicate``."""
        return [(tid, dict(row)) for tid, row in self.rows() if predicate(row)]

    def distinct_values(self, attribute: str) -> List[Any]:
        """Return the distinct values of ``attribute`` (NULLs excluded)."""
        self.schema.attribute(attribute)
        seen: Dict[Any, None] = {}
        for _tid, row in self.rows():
            value = row.get(attribute)
            if value is not None and value not in seen:
                seen[value] = None
        return list(seen)

    # -- indexes -------------------------------------------------------------------

    def create_index(self, attributes: Sequence[str]) -> HashIndex:
        """Create (or return an existing) hash index on ``attributes``."""
        key = tuple(attributes)
        for attr in key:
            self.schema.attribute(attr)
        if key in self._indexes:
            return self._indexes[key]
        index = HashIndex(key)
        index.rebuild(self._rows.items())
        self._indexes[key] = index
        return index

    def index_on(self, attributes: Sequence[str]) -> Optional[HashIndex]:
        """Return the index on exactly ``attributes``, if one exists."""
        return self._indexes.get(tuple(attributes))

    def lookup(self, attributes: Sequence[str], values: Sequence[Any]) -> List[int]:
        """Return tids whose ``attributes`` equal ``values`` (index-accelerated)."""
        index = self.create_index(attributes)
        return sorted(index.lookup(*values))

    # -- internal -------------------------------------------------------------------

    def _require(self, tid: int) -> Dict[str, Any]:
        if tid not in self._rows:
            raise UnknownTupleError(tid)
        return self._rows[tid]

    def _check_key(self, row: Dict[str, Any], exclude_tid: Optional[int]) -> None:
        if not self.schema.key:
            return
        key_values = tuple(row.get(attr) for attr in self.schema.key)
        if any(value is None for value in key_values):
            raise ConstraintViolationError(
                f"key attributes {self.schema.key} of {self.name!r} cannot be NULL"
            )
        index = self._indexes.get(tuple(self.schema.key))
        if index is None:
            return
        existing = index.lookup(*key_values) - ({exclude_tid} if exclude_tid is not None else set())
        if existing:
            raise ConstraintViolationError(
                f"duplicate key {key_values!r} in relation {self.name!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation(name={self.name!r}, arity={len(self.schema)}, size={len(self)})"
