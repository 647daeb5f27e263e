"""Exception hierarchy for the Semandaq reproduction.

All exceptions raised by the library derive from :class:`SemandaqError`, so
callers can catch a single type at the API boundary.  Sub-hierarchies mirror
the subsystems: the relational engine, the CFD formalism, static analysis,
detection, repair, discovery and the system facade.
"""

from __future__ import annotations


class SemandaqError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Relational engine
# ---------------------------------------------------------------------------


class EngineError(SemandaqError):
    """Base class for errors raised by the relational engine."""


class SchemaError(EngineError):
    """A schema definition or schema lookup is invalid."""


class UnknownRelationError(SchemaError):
    """A relation name was not found in the database."""

    def __init__(self, name: str):
        super().__init__(f"unknown relation: {name!r}")
        self.name = name


class UnknownAttributeError(SchemaError):
    """An attribute name was not found in a relation schema."""

    def __init__(self, relation: str, attribute: str):
        super().__init__(f"unknown attribute {attribute!r} in relation {relation!r}")
        self.relation = relation
        self.attribute = attribute


class DuplicateRelationError(SchemaError):
    """Attempted to create a relation whose name already exists."""


class TypeMismatchError(EngineError):
    """A value does not conform to its declared attribute type."""


class ConstraintViolationError(EngineError):
    """A storage-level constraint (e.g. NOT NULL, key) was violated."""


class BackendError(EngineError):
    """A storage backend was mis-configured or misused.

    Raised for a store path SQLite cannot open, a negative ``pool_size``,
    invalid identifiers, use after ``close()`` and other backend-level
    contract violations.
    """


class UnsupportedSqliteError(BackendError):
    """The linked SQLite library is older than the supported minimum (3.25).

    The floor is set by policy; the newest feature the detection SQL
    needs is row values (SQLite 3.15).
    """


class UnknownTupleError(EngineError):
    """A tuple id does not exist in the relation."""

    def __init__(self, tid: int):
        super().__init__(f"unknown tuple id: {tid}")
        self.tid = tid


# ---------------------------------------------------------------------------
# SQL execution
# ---------------------------------------------------------------------------


class SqlError(EngineError):
    """Base class for errors raised while running SQL on a backend."""


class SqlExecutionError(SqlError):
    """A statement failed at execution time."""


# ---------------------------------------------------------------------------
# CFD formalism
# ---------------------------------------------------------------------------


class CfdError(SemandaqError):
    """Base class for errors in the CFD formalism."""


class CfdParseError(CfdError):
    """A textual CFD specification could not be parsed."""


class CfdSchemaError(CfdError):
    """A CFD refers to attributes that do not exist in the target schema."""


class InconsistentCfdsError(CfdError):
    """A set of CFDs has no non-empty satisfying instance."""


# ---------------------------------------------------------------------------
# Detection / repair / discovery / monitor
# ---------------------------------------------------------------------------


class DetectionError(SemandaqError):
    """Violation detection failed."""


class RepairError(SemandaqError):
    """The repair algorithm could not produce a candidate repair."""


class DiscoveryError(SemandaqError):
    """CFD discovery failed or was mis-configured."""


class MonitorError(SemandaqError):
    """The data monitor was used incorrectly."""


class ExplorerError(SemandaqError):
    """The data explorer was asked for an impossible navigation step."""


class ConfigurationError(SemandaqError):
    """The system facade was configured inconsistently."""
