"""Data exploration: the drill-down navigation of the paper's Fig. 2.

The data explorer lets users explore *data by means of CFDs* — select an
embedded FD, then one of its pattern tuples, then one of the LHS value
combinations matching that pattern, then one of the distinct RHS values, and
finally the tuples themselves — and, in the other direction, explore *CFDs
by means of the data*: pick a tuple and see every CFD and pattern tuple
relevant to it and why it is considered a violation.  At every step the
number of violating tuples is reported to guide the navigation.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.cfd import CFD, PatternMatcher
from ..detection.violations import ViolationReport
from ..engine.relation import Relation
from ..errors import ExplorerError
from ..sources.base import NO_RHS_FILTER, GroupKey, TupleSource
from ..sources.native import NativeTupleSource


@dataclass(frozen=True)
class CfdSummary:
    """One row of the explorer's CFD list (left table of Fig. 2)."""

    cfd_id: str
    lhs: Tuple[str, ...]
    rhs: Tuple[str, ...]
    pattern_count: int
    violating_tuples: int


@dataclass(frozen=True)
class PatternSummary:
    """One pattern tuple of a CFD, with its violation count (second table of Fig. 2)."""

    cfd_id: str
    pattern_index: int
    rendered: Dict[str, str]
    violating_tuples: int


@dataclass(frozen=True)
class LhsMatch:
    """One distinct LHS value combination matching a pattern (third table of Fig. 2)."""

    lhs_values: Tuple[Any, ...]
    tuple_count: int
    violating_tuples: int


@dataclass(frozen=True)
class RhsValue:
    """One distinct RHS value for a selected LHS combination (fourth table of Fig. 2)."""

    value: Any
    tuple_count: int
    violating_tuples: int


class DataExplorer:
    """Programmatic drill-down over a relation, its CFDs and a violation report.

    Accepts either an in-memory :class:`Relation` (wrapped in a
    :class:`NativeTupleSource`) or any :class:`TupleSource` — in
    particular a backend-resident one, in which case every navigation step
    is answered by pushed-down aggregates plus the dirty rows, and the two
    long listings come a page at a time: the LHS groups of a pattern
    (:meth:`lhs_matches`) and the tuples of a group (:meth:`tuples_page`).
    The dirty rows are the report's dirty region
    (:meth:`TupleSource.dirty_region`), read on the first step that needs
    them and shared with whoever else reads the same source; the explorer
    only reads it, and groups each CFD's dirty rows by LHS key once.  Rows
    the explorer hands out (:meth:`explain_tuple`, the tuple pages) are
    fetched for the caller and never alias the region.
    """

    #: page size used when :meth:`tuples_for` drains a group to a full list
    DEFAULT_PAGE_SIZE = 200

    def __init__(
        self,
        relation: Union[Relation, TupleSource],
        cfds: Sequence[CFD],
        report: ViolationReport,
    ):
        if isinstance(relation, TupleSource):
            self.source = relation
            self.relation = getattr(relation, "relation", None)
        else:
            self.relation = relation
            self.source = NativeTupleSource(relation)
        self.cfds = list(cfds)
        self.report = report
        self._by_id: Dict[str, CFD] = {cfd.identifier: cfd for cfd in self.cfds}
        #: tids involved in a violation, per CFD id
        self._dirty_by_cfd: Dict[str, Set[int]] = defaultdict(set)
        for violation in report.violations:
            self._dirty_by_cfd[violation.cfd_id].update(violation.tids)
        #: the dirty region's rows by tid, read-only (built on first use)
        self._dirty_rows_cache: Optional[Dict[int, Dict[str, Any]]] = None
        #: per CFD id, its dirty tids grouped by LHS key (built on first use)
        self._dirty_groups: Dict[str, Dict[GroupKey, List[int]]] = {}

    def _dirty_rows(self) -> Dict[int, Dict[str, Any]]:
        if self._dirty_rows_cache is None:
            region = self.source.dirty_region(self.report)
            self._dirty_rows_cache = dict(region.stored_rows())
        return self._dirty_rows_cache

    def _groups(self, cfd: CFD) -> Dict[GroupKey, List[int]]:
        """The CFD's dirty tids (those present in the dirty rows) by LHS key."""
        groups = self._dirty_groups.get(cfd.identifier)
        if groups is None:
            rows = self._dirty_rows()
            groups = self._dirty_groups[cfd.identifier] = {}
            for tid in self._dirty_by_cfd.get(cfd.identifier, ()):
                row = rows.get(tid)
                if row is not None:
                    key = tuple(row.get(attr) for attr in cfd.lhs)
                    groups.setdefault(key, []).append(tid)
        return groups

    # -- exploring data by means of CFDs -------------------------------------------------

    def list_cfds(self) -> List[CfdSummary]:
        """The explorer's CFD list with per-CFD violation counts."""
        summaries = []
        for cfd in self.cfds:
            summaries.append(
                CfdSummary(
                    cfd_id=cfd.identifier,
                    lhs=cfd.lhs,
                    rhs=cfd.rhs,
                    pattern_count=len(cfd.patterns),
                    violating_tuples=len(self._dirty_by_cfd.get(cfd.identifier, set())),
                )
            )
        return summaries

    def patterns_for(self, cfd_id: str) -> List[PatternSummary]:
        """The pattern tuples of one CFD, each with its violating-tuple count."""
        cfd = self._cfd(cfd_id)
        groups = self._groups(cfd)
        summaries = []
        for index, matcher in enumerate(cfd.matchers):
            summaries.append(
                PatternSummary(
                    cfd_id=cfd_id,
                    pattern_index=index,
                    rendered={
                        attr: str(matcher.pattern.value(attr)) for attr in cfd.attributes
                    },
                    violating_tuples=sum(
                        len(tids)
                        for key, tids in groups.items()
                        if matcher.applies_to_key(key)
                    ),
                )
            )
        return summaries

    def lhs_matches(
        self,
        cfd_id: str,
        pattern_index: int,
        after: Optional[LhsMatch] = None,
        page_size: int = 50,
    ) -> List[LhsMatch]:
        """One page of the LHS value combinations of tuples matching the pattern.

        The listing ranks the violating groups first, by
        (−``violating_tuples``, ``lhs_values``); the clean groups follow
        by ``lhs_values``.  ``after`` is the last entry of the previous
        page (``None`` starts the listing), the way ``after_tid`` works in
        :meth:`tuples_page`; a short page means the listing is exhausted.

        The violating groups and their counts come from the dirty rows
        (a violating tuple is dirty by definition), and one
        ``majority_values`` histogram over the page's keys sizes them:
        applicability is a function of the key, so a group's histogram,
        NULL bucket included, counts exactly its applicable tuples.  The
        clean groups come as keyset pages of the source's group histogram
        (:meth:`TupleSource.pattern_group_freq`), skipping the violating
        keys, so a page costs its own groups, not the relation's: each
        statement asks for the page's remaining room plus the violating
        keys still ahead, at most a page of them, so a run of ``k``
        violating keys costs at most ``k / page_size`` more statements.
        """
        if page_size < 1:
            raise ExplorerError("page_size must be at least 1")
        cfd = self._cfd(cfd_id)
        matcher = self._matcher(cfd, pattern_index)
        groups = self._groups(cfd)
        ranked = sorted(
            (-len(tids), key)
            for key, tids in groups.items()
            if matcher.applies_to_key(key)
        )
        page: List[LhsMatch] = []
        cursor: Optional[GroupKey] = None
        if after is None or after.violating_tuples:
            start = 0
            if after is not None:
                start = bisect_right(
                    ranked, (-after.violating_tuples, tuple(after.lhs_values))
                )
            chosen = [key for _rank, key in ranked[start : start + page_size]]
            if chosen:
                histograms = self.source.majority_values(cfd, cfd.rhs[0], chosen)
                page = [
                    LhsMatch(
                        lhs_values=key,
                        tuple_count=sum(histograms.get(key, Counter()).values()),
                        violating_tuples=len(groups[key]),
                    )
                    for key in chosen
                ]
        else:
            cursor = tuple(after.lhs_values)
        if len(page) == page_size:
            return page
        # the violating keys in key order: the clean phase skips them
        skipped = sorted(key for _rank, key in ranked)
        while len(page) < page_size:
            ahead = len(skipped)
            if cursor is not None:
                ahead -= bisect_right(skipped, cursor)
            # room for the violating keys still ahead, up to a page of
            # them: a statement that leaves the page short skipped more
            # than a page of violating keys
            limit = page_size - len(page) + min(ahead, page_size)
            freq = self.source.pattern_group_freq(
                cfd, pattern_index, after=cursor, limit=limit
            )
            for key, count in freq.items():
                cursor = key
                if key not in groups:
                    page.append(LhsMatch(key, tuple_count=count, violating_tuples=0))
                    if len(page) == page_size:
                        break
            if len(freq) < limit:
                break
        return page

    def rhs_values(
        self, cfd_id: str, pattern_index: int, lhs_values: Sequence[Any]
    ) -> List[RhsValue]:
        """Distinct RHS values among the tuples with the selected LHS values."""
        cfd = self._cfd(cfd_id)
        key = tuple(lhs_values)
        if not self._matcher(cfd, pattern_index).applies_to_key(key):
            return []
        rhs_attribute = cfd.rhs[0]
        # Applicability is a function of the LHS key alone, so once the key
        # passes, the per-value counts are exactly the group's RHS
        # histogram (NULL bucket included).
        histogram = self.source.majority_values(cfd, rhs_attribute, [key]).get(
            key, Counter()
        )
        rows = self._dirty_rows()
        violating: Dict[Any, int] = defaultdict(int)
        for tid in self._groups(cfd).get(key, ()):
            violating[rows[tid].get(rhs_attribute)] += 1
        values = [
            RhsValue(
                value=value,
                tuple_count=count,
                violating_tuples=violating.get(value, 0),
            )
            for value, count in histogram.items()
        ]
        values.sort(key=lambda entry: (-entry.tuple_count, str(entry.value)))
        return values

    def tuples_for(
        self,
        cfd_id: str,
        pattern_index: int,
        lhs_values: Sequence[Any],
        rhs_value: Optional[Any] = None,
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """The tuples behind a selected LHS combination (optionally filtered by RHS value)."""
        rows: List[Tuple[int, Dict[str, Any]]] = []
        after_tid = -1
        while True:
            page = self.tuples_page(
                cfd_id,
                pattern_index,
                lhs_values,
                rhs_value=rhs_value,
                after_tid=after_tid,
                page_size=self.DEFAULT_PAGE_SIZE,
            )
            rows.extend(page)
            if len(page) < self.DEFAULT_PAGE_SIZE:
                return rows
            after_tid = page[-1][0]

    def tuples_page(
        self,
        cfd_id: str,
        pattern_index: int,
        lhs_values: Sequence[Any],
        rhs_value: Optional[Any] = None,
        after_tid: int = -1,
        page_size: int = 50,
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """One keyset page of the tuples behind a selected LHS combination.

        Rows arrive in ascending tid order starting after ``after_tid``; a
        short page means the group is exhausted.  On a backend-resident
        source each page is one ``page_fetch`` statement — only the
        visible page is ever hydrated.
        """
        cfd = self._cfd(cfd_id)
        key = tuple(lhs_values)
        if not self._matcher(cfd, pattern_index).applies_to_key(key):
            return []
        return self.source.page(
            after_tid=after_tid,
            page_size=page_size,
            cfd=cfd,
            lhs_values=key,
            rhs_value=NO_RHS_FILTER if rhs_value is None else rhs_value,
        )

    # -- exploring CFDs by means of the data -----------------------------------------------

    def explain_tuple(self, tid: int) -> Dict[str, Any]:
        """Everything the explorer shows about one tuple.

        Returns the tuple's values, its ``vio(t)``, the violations it is
        involved in, and — for every CFD — whether the CFD applies to the
        tuple and which pattern tuples are relevant.  This is the information
        a user needs to understand why the tuple is regarded as a violation
        and to correct it manually.
        """
        fetched = self.source.fetch_rows([tid])
        if tid not in fetched:
            raise ExplorerError(f"tuple {tid} does not exist")
        row = fetched[tid]
        relevant: List[Dict[str, Any]] = []
        for cfd in self.cfds:
            applicable_patterns = [
                index
                for index, matcher in enumerate(cfd.matchers)
                if matcher.applies_to(row)
            ]
            if applicable_patterns:
                relevant.append(
                    {
                        "cfd": cfd.identifier,
                        "patterns": applicable_patterns,
                        "violated": tid in self._dirty_by_cfd.get(cfd.identifier, set()),
                    }
                )
        return {
            "tid": tid,
            "row": row,
            "vio": self.report.vio_of(tid),
            "violations": [v.to_dict() for v in self.report.violations_for(tid)],
            "relevant_cfds": relevant,
        }

    def dirtiest_tuples(self, top: int = 10) -> List[Tuple[int, int]]:
        """The ``top`` tuples by ``vio(t)`` — the entry point for focused review."""
        vio = self.report.vio()
        ranked = sorted(vio.items(), key=lambda pair: (-pair[1], pair[0]))
        return [(tid, count) for tid, count in ranked if count > 0][:top]

    # -- internal -----------------------------------------------------------------------------

    def _cfd(self, cfd_id: str) -> CFD:
        if cfd_id not in self._by_id:
            raise ExplorerError(f"unknown CFD {cfd_id!r}")
        return self._by_id[cfd_id]

    def _matcher(self, cfd: CFD, pattern_index: int) -> PatternMatcher:
        if not 0 <= pattern_index < len(cfd.patterns):
            raise ExplorerError(
                f"CFD {cfd.identifier} has no pattern #{pattern_index}"
            )
        return cfd.matchers[pattern_index]
