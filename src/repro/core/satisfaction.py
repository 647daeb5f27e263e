"""Direct (non-SQL) satisfaction checking for CFDs.

These routines implement the CFD semantics by explicit iteration over the
relation.  They serve two purposes in the reproduction:

* an *oracle* against which the SQL-based detector is tested (property-based
  tests compare the two on random instances);
* the native-Python side of the SQL-vs-native benchmark (SQL-NATIVE,
  ``benchmarks/bench_sql_vs_native.py``; ``benchmarks/README.md`` says
  how to read it).

Every routine files rows through one routine, :class:`ViolationState`: it
tests each row against each pattern row through the CFD's compiled
:attr:`~repro.core.cfd.CFD.matchers` and keeps, per pattern row, the
single-tuple violations, the members of each LHS group and the set of
violating group keys.  :func:`scan_violations` builds a state over a
relation once and reads it out; the native detector and sampling-based
validation read their violations off that scan.  Three users keep one
state across their edits instead: the repair planner, the repair review
and the data monitor's incremental detector.  A cell change re-files
only the changed tuple, under only the CFDs that mention a changed
attribute; an inserted tuple is filed and a deleted one unfiled; and a
read re-decides only the group keys that changed.  One routine
therefore decides, for a scan and for an edit alike, which single-tuple
violation and which LHS group a row joins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..engine.relation import Relation
from .cfd import CFD, PatternMatcher
from .pattern import PatternTuple

GroupKey = Tuple[Any, ...]
Row = Dict[str, Any]
#: ``(lhs, pattern states over it)`` per distinct LHS
_ByLhs = List[Tuple[Tuple[str, ...], List["_PatternState"]]]


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


class _PatternState:
    """One pattern row's violations, kept up to date as rows are filed.

    ``groups`` maps each LHS key to its members' rows by tid.  A member's
    row is the one it was filed with; a change to an attribute the CFD
    does not mention leaves the row stale but its key and RHS values
    right, so the state re-files a tuple only under the CFDs a change
    moves.  ``touched`` holds the keys whose verdict may have changed
    since :meth:`settle` last ran.  Rows are filed by :func:`_file`.
    """

    __slots__ = ("matcher", "grouping", "singles", "groups", "violating", "touched")

    def __init__(self, matcher: PatternMatcher, grouping: bool):
        self.matcher = matcher
        #: whether rows join LHS groups (a wildcard RHS and a non-empty LHS)
        self.grouping = grouping
        self.singles: Set[int] = set()
        self.groups: Dict[GroupKey, Dict[int, Row]] = {}
        self.violating: Set[GroupKey] = set()
        self.touched: Set[GroupKey] = set()

    def unfile(self, tid: int, key: GroupKey) -> None:
        """Take tuple ``tid``, filed under ``key``, out again."""
        self.singles.discard(tid)
        group = self.groups.get(key)
        if group is not None and group.pop(tid, None) is not None:
            if not group:
                del self.groups[key]
            self.touched.add(key)

    def violates(self, group: Dict[int, Row]) -> bool:
        """Whether ``group`` violates.

        A group of two or more members violates when its non-NULL values
        of some wildcard RHS attribute are not all equal (``1`` equals
        ``1.0``).
        """
        return len(group) > 1 and _disagree(group.values(), self.matcher.wildcard_rhs)

    def decide(self) -> None:
        """Decide every group afresh.

        After a bulk filing every group of two or more members is
        touched; walking the groups in filing order reads their members
        in less time than looking each touched key up.
        """
        self.violating = {key for key, group in self.groups.items() if self.violates(group)}
        self.touched.clear()

    def settle(self) -> None:
        """Re-decide the touched keys."""
        groups, violating = self.groups, self.violating
        for key in self.touched:
            group = groups.get(key)
            if group is not None and self.violates(group):
                violating.add(key)
            else:
                violating.discard(key)
        self.touched.clear()

    def violating_groups(self) -> List[Tuple[GroupKey, List[int]]]:
        """Violating groups by lowest member tid, each as ``(key, tids ascending)``."""
        self.settle()
        groups = self.groups
        ordered = [(key, sorted(groups[key])) for key in self.violating]
        # a tuple sits in one group per pattern row, so first members differ
        ordered.sort(key=lambda group: group[1][0])
        return ordered


def _file(
    lhs: Tuple[str, ...],
    states: Sequence[_PatternState],
    entries: Iterable[Tuple[int, Row]],
) -> None:
    """File each ``(tid, row)`` of ``entries`` under ``states``, the patterns over ``lhs``.

    The one routine that decides where a row goes.  A row's key is built
    once for every pattern over its LHS, and a row with a NULL LHS value
    goes nowhere.  When a pattern applies (LHS constants match), a failed
    constant RHS position makes the row a single-tuple violation, and —
    for a pattern with a wildcard RHS position and a non-empty LHS — the
    row joins the group of its LHS values unless every wildcard RHS value
    is NULL (such a row can neither support nor contradict the FD part).
    """
    for tid, row in entries:
        get = row.get
        key = tuple(map(get, lhs))
        if None in key:
            continue
        for state in states:
            matcher = state.matcher
            if matcher.key_constants and not matcher.key_matches(key):
                continue
            if matcher.rhs_constants and matcher.violates_constant(row):
                state.singles.add(tid)
            if not state.grouping:
                continue
            for value in map(get, matcher.wildcard_rhs):
                if value is not None:
                    break
            else:
                continue  # every wildcard RHS value is NULL
            group = state.groups.get(key)
            if group is None:
                # a key without members is not violating, or still touched
                # from the unfile that emptied it
                state.groups[key] = {tid: row}
            else:
                group[tid] = row
                state.touched.add(key)


class ViolationState:
    """The violations of several CFDs over one relation, kept row by row.

    Built over ``relation`` by filing each stored row and deciding each
    group, then kept current by the caller, one call per change:
    :meth:`file` files tuples the relation gained, :meth:`unfile` takes
    out a tuple it lost, and :meth:`refile` re-files a tuple after some of
    its cells changed.  The state keeps no set of the tuples it holds: a
    caller files each tuple once, and unfiles only a tuple it filed.  A
    row's LHS key is built once per distinct LHS and shared by every CFD
    over that LHS.  :meth:`scan` reads one CFD's violations out in
    :func:`scan_violations`' order, re-deciding only the group keys
    touched since the last read.

    The state holds references to the rows it filed and never changes
    them; like :meth:`~repro.engine.relation.Relation.stored_rows`, it
    relies on a relation replacing, not editing, a changed tuple's row.
    """

    def __init__(self, cfds: Sequence[CFD], relation: Relation):
        self.cfds: List[CFD] = list(cfds)
        #: per CFD, one state per pattern row
        self._patterns: List[List[_PatternState]] = [
            [
                _PatternState(matcher, bool(cfd.lhs and matcher.wildcard_rhs))
                for matcher in cfd.matchers
            ]
            for cfd in self.cfds
        ]
        #: changed attributes -> the pattern states of the CFDs that mention any
        self._moved: Dict[FrozenSet[str], _ByLhs] = {}
        #: the pattern states of every CFD
        self._every = self._moved_by(
            frozenset(attribute for cfd in self.cfds for attribute in cfd.lhs + cfd.rhs)
        )
        #: (tuple, pattern row) pairs filed or unfiled so far
        self.examined = 0
        self.file(list(relation.stored_rows()))
        for states in self._patterns:
            for state in states:
                state.decide()

    def _moved_by(self, attributes: FrozenSet[str]) -> _ByLhs:
        """The pattern states of the CFDs whose LHS or RHS holds any of ``attributes``.

        Grouped by LHS in the order the CFDs first use it, and kept per
        attribute set.
        """
        moved = self._moved.get(attributes)
        if moved is None:
            by_lhs: Dict[Tuple[str, ...], List[_PatternState]] = {}
            for cfd, states in zip(self.cfds, self._patterns):
                if not attributes.isdisjoint(cfd.lhs + cfd.rhs):
                    by_lhs.setdefault(cfd.lhs, []).extend(states)
            moved = self._moved[attributes] = list(by_lhs.items())
        return moved

    def file(self, entries: Sequence[Tuple[int, Row]]) -> None:
        """File each ``(tid, row)`` of ``entries`` under every CFD.

        The tuples must be ones the state does not hold yet.
        """
        for lhs, states in self._every:
            _file(lhs, states, entries)
            self.examined += len(states) * len(entries)

    def unfile(self, tid: int, row: Row) -> None:
        """Take tuple ``tid``, whose current row is ``row``, out under every CFD."""
        for lhs, states in self._every:
            self._unfile(lhs, states, tid, row)

    def refile(self, tid: int, old_row: Row, new_row: Row, attributes: Iterable[str]) -> None:
        """Re-file tuple ``tid`` after its ``attributes`` changed from ``old_row``.

        Only the CFDs that mention a changed attribute can see the
        change; the old key comes from ``old_row``.
        """
        for lhs, states in self._moved_by(frozenset(attributes)):
            self._unfile(lhs, states, tid, old_row)
            _file(lhs, states, ((tid, new_row),))
            self.examined += len(states)

    def _unfile(
        self, lhs: Tuple[str, ...], states: Sequence[_PatternState], tid: int, row: Row
    ) -> None:
        key = tuple(map(row.get, lhs))
        if None not in key:
            for state in states:
                state.unfile(tid, key)
        self.examined += len(states)

    def scan(self, index: int) -> ViolationScan:
        """The violations of ``self.cfds[index]``, as one scan would find them."""
        singles: List[List[int]] = []
        groups: List[List[Tuple[GroupKey, List[int]]]] = []
        for state in self._patterns[index]:
            singles.append(sorted(state.singles))
            groups.append(state.violating_groups())
        return ViolationScan(singles=singles, groups=groups)


def scan_violations(relation: Relation, cfd: CFD) -> ViolationScan:
    """Find ``cfd``'s single-tuple violations and violating groups in one pass.

    Files every row of ``relation`` in a :class:`ViolationState` and reads
    it out.  A row is tested against a pattern row once: when the pattern
    applies (NULL-free LHS, LHS constants match), a failed constant RHS
    position makes the row a single-tuple violation, and — for a pattern
    with a wildcard RHS position and a non-empty LHS — the row joins the
    group of its LHS values unless every wildcard RHS value is NULL.  A
    group of two or more members violates when its non-NULL values of some
    wildcard RHS attribute are not all equal (``1`` equals ``1.0``).
    """
    return ViolationState([cfd], relation).scan(0)


def _disagree(rows: Iterable[Row], attributes: Sequence[str]) -> bool:
    """Whether the rows hold two different non-NULL values of some attribute.

    Values normalise only when they are not already all equal.
    """
    for attr in attributes:
        values = {row.get(attr) for row in rows}
        values.discard(None)
        if len(values) > 1 and len(set(map(_normalise, values))) > 1:
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
