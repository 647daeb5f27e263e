"""The database: a named collection of in-memory relations.

A :class:`Database` owns :class:`~repro.engine.relation.Relation` objects
and is the *working store* of the system: the native (non-SQL) paths —
repair, audit, exploration, incremental monitoring and the native
detection oracle — read and mutate it directly.  It runs no SQL: detection
queries are pushed down to a :class:`~repro.backends.base.StorageBackend`
(SQLite), into which the facade mirrors every relation.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from ..errors import DuplicateRelationError, UnknownRelationError
from .relation import Relation
from .types import RelationSchema


class Database:
    """A named collection of in-memory relations."""

    def __init__(self, name: str = "semandaq"):
        self.name = name
        self._relations: Dict[str, Relation] = {}

    # -- catalog --------------------------------------------------------------

    def create_relation(
        self,
        schema: RelationSchema,
        rows: Optional[Iterable[Dict[str, Any]]] = None,
        replace: bool = False,
    ) -> Relation:
        """Create a relation from ``schema`` and optionally populate it."""
        if schema.name in self._relations and not replace:
            raise DuplicateRelationError(f"relation {schema.name!r} already exists")
        relation = Relation(schema)
        if rows is not None:
            relation.insert_many(rows)
        self._relations[schema.name] = relation
        return relation

    def add_relation(self, relation: Relation, replace: bool = False) -> Relation:
        """Register an existing :class:`Relation` object."""
        if relation.name in self._relations and not replace:
            raise DuplicateRelationError(f"relation {relation.name!r} already exists")
        self._relations[relation.name] = relation
        return relation

    def drop_relation(self, name: str) -> None:
        """Remove relation ``name`` from the catalog."""
        if name not in self._relations:
            raise UnknownRelationError(name)
        del self._relations[name]

    def relation(self, name: str) -> Relation:
        """Return the relation called ``name``."""
        if name not in self._relations:
            raise UnknownRelationError(name)
        return self._relations[name]

    def has_relation(self, name: str) -> bool:
        """Return whether a relation called ``name`` exists."""
        return name in self._relations

    def relation_names(self) -> List[str]:
        """Names of all relations, sorted."""
        return sorted(self._relations)

    def schema_summary(self) -> Dict[str, List[str]]:
        """Map each relation name to its attribute names.

        This mirrors the automatic schema discovery the data explorer performs
        after connecting to a database.
        """
        return {
            name: rel.attribute_names for name, rel in sorted(self._relations.items())
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database(name={self.name!r}, relations={self.relation_names()})"
