"""Pattern tableaux and their relational encoding.

The paper stresses that "CFDs allow for a relational representation [3], the
constraint engine maximally leverages the use of indices and other
optimizations provided by DBMS in the storage and manipulation of CFDs".
This module materialises the pattern tableau of a CFD as a relation whose
columns are the CFD's attributes (wildcards encoded as SQL NULL); the
constraint engine keeps one per registered CFD as metadata in the DBMS.
The detection SQL does not join against it: each pattern row compiles to
its own statement with the constants bound as parameters (see
:mod:`repro.detection.sqlgen`).

Wildcards used to be stored as the literal ``_`` token, which made a
*constant* whose value is literally ``'_'`` (constructible through
:meth:`~repro.core.pattern.PatternValue.const`) indistinguishable from a
wildcard.  NULL cannot collide with any constant — ``const(None)`` is
rejected at construction — so the encoding is NULL for wildcards and
``str(constant)`` for constants.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import CfdError
from ..engine.relation import Relation
from ..engine.types import AttributeDef, DataType, RelationSchema
from .cfd import CFD
from .pattern import PatternTuple, PatternValue

#: Name of the extra column holding the pattern-tuple index in the encoding.
PATTERN_ID_COLUMN = "pattern_id"


def merge_cfds(cfds: Iterable[CFD]) -> List[CFD]:
    """Merge CFDs that share relation and embedded FD into multi-pattern CFDs.

    The result contains one CFD per (relation, LHS, RHS) combination whose
    tableau is the concatenation of all pattern tuples, with duplicates
    removed.  This is how the constraint engine stores user-specified CFDs
    compactly.
    """
    grouped: Dict[Tuple[str, Tuple[str, ...], Tuple[str, ...]], List[CFD]] = {}
    order: List[Tuple[str, Tuple[str, ...], Tuple[str, ...]]] = []
    for cfd in cfds:
        key = (cfd.relation, cfd.lhs, cfd.rhs)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(cfd)
    merged: List[CFD] = []
    for key in order:
        members = grouped[key]
        patterns: List[PatternTuple] = []
        for member in members:
            for pattern in member.patterns:
                if pattern not in patterns:
                    patterns.append(pattern)
        name = members[0].name
        merged.append(members[0].with_patterns(patterns) if len(patterns) != len(members[0].patterns) or len(members) > 1 else members[0])
        merged[-1] = CFD(
            relation=key[0], lhs=key[1], rhs=key[2], patterns=tuple(patterns), name=name
        )
    return merged


def tableau_schema(cfd: CFD, relation_name: Optional[str] = None) -> RelationSchema:
    """Schema of the relational encoding of ``cfd``'s pattern tableau."""
    name = relation_name or f"tableau_{cfd.name or 'cfd'}"
    attributes = [AttributeDef(PATTERN_ID_COLUMN, DataType.INTEGER, nullable=False)]
    attributes.extend(AttributeDef(attr, DataType.STRING) for attr in cfd.attributes)
    return RelationSchema(name=name, attributes=attributes)


def tableau_to_relation(cfd: CFD, relation_name: Optional[str] = None) -> Relation:
    """Materialise the pattern tableau of ``cfd`` as a relation.

    Every constant is stored as its string encoding; wildcards are stored
    as NULL (which no constant can collide with).  The extra ``pattern_id``
    column numbers the pattern tuples, so :func:`relation_to_tableau` reads
    them back in order.
    """
    schema = tableau_schema(cfd, relation_name)
    relation = Relation(schema)
    for index, pattern in enumerate(cfd.patterns):
        row: Dict[str, object] = {PATTERN_ID_COLUMN: index}
        for attr in cfd.attributes:
            row[attr] = _encode_value(pattern.value(attr))
        relation.insert(row)
    return relation


def relation_to_tableau(cfd_shape: CFD, relation: Relation) -> CFD:
    """Rebuild a CFD from the relational encoding produced by :func:`tableau_to_relation`.

    ``cfd_shape`` supplies the relation name and embedded FD; the pattern
    tuples are read back from ``relation`` ordered by ``pattern_id``.
    """
    rows = sorted(relation.to_list(), key=lambda row: row.get(PATTERN_ID_COLUMN, 0))
    if not rows:
        raise CfdError("tableau relation is empty")
    patterns: List[PatternTuple] = []
    for row in rows:
        mapping = {}
        for attr in cfd_shape.attributes:
            mapping[attr] = _decode_value(row.get(attr))
        patterns.append(PatternTuple.of(mapping))
    return cfd_shape.with_patterns(patterns)


def _encode_value(value: PatternValue) -> Optional[str]:
    if value.is_wildcard:
        return None
    return str(value.constant)


def _decode_value(raw: object) -> PatternValue:
    # NULL is the wildcard encoding; every non-NULL string — including a
    # literal '_' — decodes to the constant it is
    if raw is None:
        return PatternValue.wildcard()
    return PatternValue.const(raw)


def tableau_size(cfds: Iterable[CFD]) -> int:
    """Total number of pattern tuples across ``cfds`` (the |Tp| of the papers)."""
    return sum(len(cfd.patterns) for cfd in cfds)


def split_constant_variable(cfd: CFD) -> Tuple[List[PatternTuple], List[PatternTuple]]:
    """Partition the tableau into constant-RHS and variable-RHS pattern tuples.

    The detection SQL treats them differently: constant-RHS patterns can be
    violated by a single tuple, variable-RHS patterns only by pairs.
    """
    constant_patterns: List[PatternTuple] = []
    variable_patterns: List[PatternTuple] = []
    for pattern in cfd.patterns:
        rhs = cfd.rhs_pattern(pattern)
        if any(value.is_constant for _attr, value in rhs.values):
            constant_patterns.append(pattern)
        if any(value.is_wildcard for _attr, value in rhs.values):
            variable_patterns.append(pattern)
    return constant_patterns, variable_patterns
