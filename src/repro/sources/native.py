"""The native tuple source: Python scans over an in-memory relation.

This is the parity oracle of the read layer — every answer comes from
iterating the relation in sorted-tid order, exactly the way the seed
auditor/explorer/repairer did.  The backend implementation
(:class:`~repro.sources.backend.BackendTupleSource`) must be
observationally identical on every method; the hypothesis properties in
``tests/sources`` and ``tests/audit`` pin that.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.cfd import CFD
from ..engine.relation import Relation
from ..engine.types import RelationSchema
from .base import NO_RHS_FILTER, GroupKey, TupleSource


def native_column_frequencies(relation: Relation) -> Dict[str, Counter]:
    """Frequency of every non-NULL value per attribute, by relation scan."""
    frequencies: Dict[str, Counter] = {
        name: Counter() for name in relation.attribute_names
    }
    for _tid, row in relation.stored_rows():
        for attribute, value in row.items():
            if value is not None:
                frequencies[attribute][value] += 1
    return frequencies


class NativeTupleSource(TupleSource):
    """Read-side oracle over a full in-memory :class:`Relation`."""

    def __init__(self, relation: Relation):
        self.relation = relation

    def schema(self) -> RelationSchema:
        return self.relation.schema

    def row_count(self) -> int:
        return len(self.relation)

    def fetch_rows(self, tids: Sequence[int]) -> Dict[int, Dict[str, Any]]:
        return {
            tid: dict(self.relation.get(tid))
            for tid in tids
            if tid in self.relation
        }

    def value_frequencies(self) -> Dict[str, Counter]:
        return native_column_frequencies(self.relation)

    def group_member_counts(
        self, cfd: CFD, rhs_attribute: str, keys: Sequence[GroupKey]
    ) -> Dict[GroupKey, int]:
        wanted = set(keys)
        counts: Dict[GroupKey, int] = {}
        for _tid, row in self.relation.stored_rows():
            if row.get(rhs_attribute) is None:
                continue
            key = tuple(row.get(attr) for attr in cfd.lhs)
            if key in wanted:
                counts[key] = counts.get(key, 0) + 1
        return counts

    def covering_member_tids(
        self, cfd: CFD, rhs_attribute: str, keys: Sequence[GroupKey]
    ) -> List[int]:
        wanted = set(keys)
        tids: List[int] = []
        for tid, row in self.relation.stored_rows():
            if row.get(rhs_attribute) is None:
                continue
            if tuple(row.get(attr) for attr in cfd.lhs) in wanted:
                tids.append(tid)
        return tids

    def majority_values(
        self, cfd: CFD, rhs_attribute: str, keys: Sequence[GroupKey]
    ) -> Dict[GroupKey, Counter]:
        wanted = set(keys)
        histograms: Dict[GroupKey, Counter] = {}
        for _tid, row in self.relation.stored_rows():
            key = tuple(row.get(attr) for attr in cfd.lhs)
            if key not in wanted:
                continue
            histograms.setdefault(key, Counter())[row.get(rhs_attribute)] += 1
        return histograms

    def pattern_group_freq(
        self,
        cfd: CFD,
        pattern_index: int,
        after: Optional[GroupKey] = None,
        limit: Optional[int] = None,
    ) -> Dict[GroupKey, int]:
        matcher = cfd.matchers[pattern_index]
        freq: Dict[GroupKey, int] = {}
        for _tid, row in self.relation.stored_rows():
            if not matcher.applies_to(row):
                continue
            key = tuple(row.get(attr) for attr in cfd.lhs)
            freq[key] = freq.get(key, 0) + 1
        keys = sorted(freq)
        start = 0 if after is None else bisect_right(keys, tuple(after))
        stop = len(keys) if limit is None else start + limit
        return {key: freq[key] for key in keys[start:stop]}

    def applicable_count(self, subs: Sequence[CFD]) -> int:
        matchers = [sub.matchers[0] for sub in subs]
        count = 0
        for _tid, row in self.relation.stored_rows():
            if any(matcher.applies_to(row) for matcher in matchers):
                count += 1
        return count

    def page(
        self,
        after_tid: int = -1,
        page_size: int = 50,
        cfd: Optional[CFD] = None,
        lhs_values: Optional[GroupKey] = None,
        rhs_value: Any = NO_RHS_FILTER,
    ) -> List[Tuple[int, Dict[str, Any]]]:
        rows: List[Tuple[int, Dict[str, Any]]] = []
        for tid, row in self.relation.stored_rows():
            if tid <= after_tid:
                continue
            if cfd is not None and lhs_values is not None:
                if tuple(row.get(attr) for attr in cfd.lhs) != tuple(lhs_values):
                    continue
                if rhs_value is not NO_RHS_FILTER:
                    if row.get(cfd.rhs[0]) != rhs_value:
                        continue
            rows.append((tid, dict(row)))
            if len(rows) >= page_size:
                break
        return rows
