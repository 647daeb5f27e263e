"""Direct (non-SQL) satisfaction checking for CFDs.

These routines implement the CFD semantics by explicit iteration over the
relation.  They serve two purposes in the reproduction:

* an *oracle* against which the SQL-based detector is tested (property-based
  tests compare the two on random instances);
* the native-Python side of the SQL-vs-native benchmark (SQL-NATIVE,
  ``benchmarks/bench_sql_vs_native.py``; ``benchmarks/README.md`` says
  how to read it).

Every routine runs on one shared pass, :func:`scan_violations`: it walks
the stored rows once in ascending tid order, tests each row against each
pattern row through the CFD's compiled :attr:`~repro.core.cfd.CFD.matchers`,
and collects the single-tuple violations and the LHS groups together.  The
native detector, the repair planner, the repair review and sampling-based
validation all read their violations off that scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Set, Tuple

from ..engine.relation import Relation
from .cfd import CFD
from .pattern import PatternTuple

GroupKey = Tuple[Any, ...]


@dataclass
class ViolationScan:
    """What one pass over a relation found for one CFD, per pattern row."""

    #: per pattern index, the tids of its single-tuple violations, ascending
    singles: List[List[int]]
    #: per pattern index, its violating groups as ``(lhs_values, tids)`` in
    #: the order of their first (lowest-tid) members; ``tids`` ascend
    groups: List[List[Tuple[GroupKey, List[int]]]]

    def single_tuple_violations(self) -> List[Tuple[int, int]]:
        """``(tid, pattern_index)`` pairs, pattern by pattern, tids ascending."""
        return [
            (tid, pattern_index)
            for pattern_index, tids in enumerate(self.singles)
            for tid in tids
        ]

    def multi_tuple_violation_groups(
        self,
    ) -> List[Tuple[int, GroupKey, List[int]]]:
        """``(pattern_index, lhs_values, tids)`` triples, pattern by pattern."""
        return [
            (pattern_index, key, tids)
            for pattern_index, groups in enumerate(self.groups)
            for key, tids in groups
        ]


def scan_violations(relation: Relation, cfd: CFD) -> ViolationScan:
    """Find ``cfd``'s single-tuple violations and violating groups in one pass.

    A row is tested against a pattern row once: when the pattern applies
    (NULL-free LHS, LHS constants match), a failed constant RHS position
    makes the row a single-tuple violation, and — for a pattern with a
    wildcard RHS position and a non-empty LHS — the row joins the group of
    its LHS values unless every wildcard RHS value is NULL (such a row can
    neither support nor contradict the FD part).  A group of two or more
    members violates when its non-NULL values of some wildcard RHS
    attribute are not all equal (``1`` equals ``1.0``).
    """
    matchers = cfd.matchers
    lhs = cfd.lhs
    singles: List[List[int]] = [[] for _ in matchers]
    # per pattern: LHS values -> the (tid, row) pairs of its members
    members: List[Dict[GroupKey, List[Tuple[int, Dict[str, Any]]]]] = [
        {} for _ in matchers
    ]
    grouping = [bool(lhs and matcher.wildcard_rhs) for matcher in matchers]
    for entry in relation.stored_rows():
        tid, row = entry
        get = row.get
        # every pattern row shares the LHS, so the key is built once per row
        key = tuple(map(get, lhs))
        if None in key:
            continue  # no pattern applies to a row with a NULL LHS value
        for pattern_index, matcher in enumerate(matchers):
            if matcher.key_constants and not matcher.key_matches(key):
                continue
            if matcher.rhs_constants and matcher.violates_constant(row):
                singles[pattern_index].append(tid)
            if not grouping[pattern_index]:
                continue
            for value in map(get, matcher.wildcard_rhs):
                if value is not None:
                    break
            else:
                continue  # every wildcard RHS value is NULL
            group = members[pattern_index].get(key)
            if group is None:
                members[pattern_index][key] = [entry]
            else:
                group.append(entry)
    groups: List[List[Tuple[GroupKey, List[int]]]] = []
    for matcher, by_key in zip(matchers, members):
        violating = []
        for key, group in by_key.items():
            if len(group) > 1 and _disagree(group, matcher.wildcard_rhs):
                violating.append((key, [tid for tid, _row in group]))
        groups.append(violating)
    return ViolationScan(singles=singles, groups=groups)


def _disagree(
    group: Sequence[Tuple[int, Dict[str, Any]]], attributes: Sequence[str]
) -> bool:
    """Whether the members hold two different non-NULL values of some attribute."""
    for attr in attributes:
        values = {
            _normalise(value)
            for value in (row.get(attr) for _tid, row in group)
            if value is not None
        }
        if len(values) > 1:
            return True
    return False


def matching_tids(relation: Relation, cfd: CFD, pattern: PatternTuple) -> List[int]:
    """Tuple ids whose rows the CFD (with ``pattern``) applies to."""
    matcher = cfd.matcher(pattern)
    return [tid for tid, row in relation.stored_rows() if matcher.applies_to(row)]


def single_tuple_violations(
    relation: Relation, cfd: CFD
) -> List[Tuple[int, int]]:
    """Return ``(tid, pattern_index)`` pairs of single-tuple violations."""
    return scan_violations(relation, cfd).single_tuple_violations()


def multi_tuple_violation_groups(
    relation: Relation, cfd: CFD
) -> List[Tuple[int, Tuple[Any, ...], List[int]]]:
    """Return multi-tuple violation groups.

    Each element is ``(pattern_index, lhs_values, tids)`` where ``tids`` are
    the tuples that share the LHS values, match the pattern, and disagree on
    some wildcard RHS attribute.  Only groups with at least two tuples and a
    genuine disagreement are reported.
    """
    return scan_violations(relation, cfd).multi_tuple_violation_groups()


def satisfies(relation: Relation, cfd: CFD) -> bool:
    """Whether ``relation`` satisfies ``cfd`` (no violations of either kind)."""
    scan = scan_violations(relation, cfd)
    return not any(scan.singles) and not any(scan.groups)


def satisfies_all(relation: Relation, cfds: Iterable[CFD]) -> bool:
    """Whether ``relation`` satisfies every CFD in ``cfds``."""
    return all(satisfies(relation, cfd) for cfd in cfds)


def violating_tids(relation: Relation, cfds: Iterable[CFD]) -> Set[int]:
    """The set of tuple ids involved in any violation of any CFD."""
    dirty: Set[int] = set()
    for cfd in cfds:
        scan = scan_violations(relation, cfd)
        for tids in scan.singles:
            dirty.update(tids)
        for _pattern_index, _key, tids in scan.multi_tuple_violation_groups():
            dirty.update(tids)
    return dirty


def violation_counts(relation: Relation, cfds: Iterable[CFD]) -> Dict[int, int]:
    """Compute ``vio(t)`` for every tuple, per the paper's definition.

    ``vio(t)`` starts at 0, is incremented by 1 for each CFD for which ``t``
    is a single-tuple violation, and is incremented by the cardinality of the
    set of tuples that jointly (with ``t``) violate a CFD, for each such CFD.
    """
    vio: Dict[int, int] = {tid: 0 for tid in relation.tids()}
    for cfd in cfds:
        scan = scan_violations(relation, cfd)
        single_tids = {tid for tids in scan.singles for tid in tids}
        for tid in single_tids:
            vio[tid] += 1
        counted: Set[int] = set()
        for _pattern_index, _key, tids in scan.multi_tuple_violation_groups():
            for tid in tids:
                if tid in counted:
                    continue
                counted.add(tid)
                # the tuples that jointly violate with t (excluding t itself)
                vio[tid] += len(tids) - 1
    return vio


def _normalise(value: Any) -> Any:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value
