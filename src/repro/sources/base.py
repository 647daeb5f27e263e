"""The :class:`TupleSource` protocol: what read-side consumers need from storage.

Every method answers a *relational read question* the auditor, explorer or
repair closure would otherwise answer by iterating a shipped copy of the
relation.  The two implementations are the parity pair the repair split
established: :class:`~repro.sources.native.NativeTupleSource` scans an
in-memory relation (the oracle), and
:class:`~repro.sources.backend.BackendTupleSource` compiles each question
to a cached, budget-chunked SQL plan that runs inside the backend.

Group keys follow the detection conventions throughout: a key is the
tuple of a row's LHS values in ``cfd.lhs`` order, keys never contain
NULL (a NULL-LHS tuple belongs to no group on any detection path), and a
group's membership criterion is LHS equality alone — pattern-constant
applicability is a function of the key, so callers check it once per key
in Python (the covering-members argument).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.cfd import CFD
from ..detection.violations import ViolationReport
from ..engine.relation import Relation
from ..engine.types import RelationSchema

GroupKey = Tuple[Any, ...]

#: sentinel for "no RHS restriction" in :meth:`TupleSource.page` (``None``
#: is a real filter value: the NULL bucket)
NO_RHS_FILTER = object()


class TupleSource:
    """Read-side protocol over one stored relation."""

    #: whether the source answers from a backend-resident copy
    resident = False

    #: the last report :meth:`dirty_region` was asked about, with its region
    _dirty: Optional[Tuple[ViolationReport, Relation]] = None

    def schema(self) -> RelationSchema:
        """The relation's schema."""
        raise NotImplementedError

    def attribute_names(self) -> List[str]:
        """Attribute names of the relation (for CFD validation)."""
        return list(self.schema().attribute_names)

    def row_count(self) -> int:
        """Number of stored tuples (the tid universe of the quality map)."""
        raise NotImplementedError

    def fetch_rows(self, tids: Sequence[int]) -> Dict[int, Dict[str, Any]]:
        """Full rows of ``tids`` (decoded values); missing tids are absent."""
        raise NotImplementedError

    def dirty_region(self, report: ViolationReport) -> Relation:
        """The tuples ``report`` finds violating, as a relation keeping their tids.

        One :meth:`fetch_rows` pass over ``report.dirty_tids()`` on the
        first call; the relation coerces each row once.  The source keeps
        the region of the last report it was asked about, so the auditor,
        the explorer and the repair source that share one source over one
        report fetch its dirty rows once (the facade builds one source per
        cached report).  Callers only read the region: a copy of it
        (:meth:`Relation.copy`) is theirs to change.
        """
        dirty = self._dirty
        if dirty is None or dirty[0] is not report:
            region = Relation(self.schema())
            for tid, values in self.fetch_rows(sorted(report.dirty_tids())).items():
                region.insert_at(tid, values)
            dirty = self._dirty = (report, region)
        return dirty[1]

    def value_frequencies(self) -> Dict[str, Counter]:
        """Per-attribute frequency of non-NULL values, native tie-break order."""
        raise NotImplementedError

    def group_member_counts(
        self, cfd: CFD, rhs_attribute: str, keys: Sequence[GroupKey]
    ) -> Dict[GroupKey, int]:
        """Member count per LHS-group key (RHS non-NULL); empty keys absent."""
        raise NotImplementedError

    def covering_member_tids(
        self, cfd: CFD, rhs_attribute: str, keys: Sequence[GroupKey]
    ) -> List[int]:
        """Tids of every member (RHS non-NULL) of the given LHS groups."""
        raise NotImplementedError

    def majority_values(
        self, cfd: CFD, rhs_attribute: str, keys: Sequence[GroupKey]
    ) -> Dict[GroupKey, Counter]:
        """Per-group histogram of ``rhs_attribute`` values, NULL bucket included.

        A key with no stored member is absent from the result.  Dropping
        the ``None`` entry of a group's counter yields exactly the value
        multiset ``Q_V`` would group — the members a multi-tuple violation
        on that key reports.
        """
        raise NotImplementedError

    def pattern_group_freq(
        self,
        cfd: CFD,
        pattern_index: int,
        after: Optional[GroupKey] = None,
        limit: Optional[int] = None,
    ) -> Dict[GroupKey, int]:
        """Applicable-tuple count per LHS group under one pattern row, in key order.

        A keyset page: the groups whose key sorts after ``after`` (from the
        first when ``None``), at most ``limit`` of them (all when
        ``None``).  Keys hold no NULL and each column one type, so
        Python's tuple order is the backend's ``ORDER BY`` order.
        """
        raise NotImplementedError

    def applicable_count(self, subs: Sequence[CFD]) -> int:
        """Number of tuples at least one sub-CFD's pattern applies to.

        ``subs`` are single-pattern normalised sub-CFDs; applicability is
        the LHS-only :meth:`CFD.applies_to` criterion (all LHS attributes
        non-NULL, pattern constants match).
        """
        raise NotImplementedError

    def page(
        self,
        after_tid: int = -1,
        page_size: int = 50,
        cfd: Optional[CFD] = None,
        lhs_values: Optional[GroupKey] = None,
        rhs_value: Any = NO_RHS_FILTER,
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """One keyset page of ``(tid, row)`` pairs in ascending tid order.

        ``cfd`` + ``lhs_values`` restrict to one LHS group; ``rhs_value``
        (when passed) restricts further to rows whose RHS value equals it
        (``None`` selects the NULL bucket).  The next page starts after
        the last returned tid; a short page means the scan is exhausted.
        """
        raise NotImplementedError
