"""Attribute-set lattice utilities and partition refinement.

CFD discovery searches a lattice of attribute sets, level by level, the way
TANE and its CFD extension (CTANE) do.  The workhorse data structure is the
*partition* of the relation induced by an attribute set: tuples fall into the
same block iff they agree on every attribute of the set.  An FD ``X -> A``
holds exactly when the partition of ``X`` refines the partition of
``X ∪ {A}`` without splitting any block — equivalently, when both partitions
have the same number of blocks over the same tuples.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from ..engine.relation import Relation

AttributeSet = Tuple[str, ...]


def attribute_subsets(
    attributes: Sequence[str], max_size: int
) -> Iterable[AttributeSet]:
    """All non-empty subsets of ``attributes`` with at most ``max_size`` members."""
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(attributes, size):
            yield combo


def partition(relation: Relation, attributes: Sequence[str]) -> Dict[Tuple[Any, ...], List[int]]:
    """Partition tuple ids by their values on ``attributes``.

    Tuples with a NULL in any of the attributes are placed in singleton
    blocks keyed by their tid (NULL agrees with nothing, so they can never
    witness or violate an FD).
    """
    blocks: Dict[Tuple[Any, ...], List[int]] = defaultdict(list)
    for tid, row in relation.rows():
        values = tuple(row.get(attr) for attr in attributes)
        if any(value is None for value in values):
            blocks[("__null__", tid)].append(tid)
        else:
            blocks[values].append(tid)
    return dict(blocks)


def fd_holds(relation: Relation, lhs: Sequence[str], rhs: str) -> bool:
    """Whether the plain FD ``lhs -> rhs`` holds exactly on ``relation``."""
    lhs_partition = partition(relation, lhs)
    for _key, tids in lhs_partition.items():
        if len(tids) < 2:
            continue
        values = {
            relation.value(tid, rhs)
            for tid in tids
            if relation.value(tid, rhs) is not None
        }
        if len(values) > 1:
            return False
    return True


def fd_violating_blocks(
    relation: Relation, lhs: Sequence[str], rhs: str
) -> List[Tuple[Tuple[Any, ...], List[int]]]:
    """The LHS blocks on which the FD ``lhs -> rhs`` is violated."""
    violating: List[Tuple[Tuple[Any, ...], List[int]]] = []
    for key, tids in partition(relation, lhs).items():
        if len(tids) < 2:
            continue
        values = {
            relation.value(tid, rhs)
            for tid in tids
            if relation.value(tid, rhs) is not None
        }
        if len(values) > 1:
            violating.append((key, tids))
    return violating


def fd_confidence(relation: Relation, lhs: Sequence[str], rhs: str) -> float:
    """Fraction of tuples kept if each violating LHS block kept only its majority value.

    1.0 means the FD holds exactly; lower values quantify how close it is to
    holding (the confidence measure used when discovering approximate
    dependencies).
    """
    total = 0
    kept = 0
    for _key, tids in partition(relation, lhs).items():
        counts: Dict[Any, int] = defaultdict(int)
        usable = [tid for tid in tids if relation.value(tid, rhs) is not None]
        if not usable:
            continue
        total += len(usable)
        for tid in usable:
            counts[relation.value(tid, rhs)] += 1
        kept += max(counts.values())
    if total == 0:
        return 1.0
    return kept / total


def value_frequencies(relation: Relation, attribute: str) -> Dict[Any, int]:
    """Frequency of each non-NULL value of ``attribute``."""
    counts: Dict[Any, int] = defaultdict(int)
    for _tid, row in relation.rows():
        value = row.get(attribute)
        if value is not None:
            counts[value] += 1
    return dict(counts)
