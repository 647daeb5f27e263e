"""Repair review: compare the candidate repair with the original data.

This is the programmatic counterpart of the paper's "Data cleansing review"
demo (Fig. 5): modified values are highlighted, each carries a ranked list
of alternative modifications, the user can accept or override a change, and
overrides trigger a background incremental detection so the effect on other
tuples is visible immediately.  That detection is incremental here too: a
review keeps one :class:`~repro.core.satisfaction.ViolationState` over its
working copy, built on the first conflict check, and each edit re-files the
one tuple it changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.cfd import CFD
from ..core.satisfaction import ViolationState
from ..engine.relation import Relation
from ..errors import RepairError
from .repairer import CellChange, Repair

Cell = Tuple[int, str]


@dataclass
class ReviewDecision:
    """The reviewer's decision about one repaired cell."""

    cell: Cell
    action: str  # 'accept' | 'override' | 'revert'
    value: Any = None


@dataclass
class ConflictNote:
    """A conflict a user override introduced with other tuples."""

    cfd_id: str
    kind: str
    tids: Tuple[int, ...]
    attribute: str


class RepairReview:
    """Interactive review of a candidate repair."""

    def __init__(self, repair: Repair, cfds: Sequence[CFD]):
        self.repair = repair
        self.cfds = list(cfds)
        #: working copy the reviewer edits; starts as the candidate repair.
        #: Edit it through :meth:`override` and :meth:`revert`, which keep
        #: the conflict checks' violation state current
        self.working: Relation = repair.repaired.copy()
        self.decisions: Dict[Cell, ReviewDecision] = {}
        #: (parent CFD, sub-CFD) pairs in the order conflicts are reported
        self._subs: List[Tuple[CFD, CFD]] = [
            (cfd, sub) for cfd in self.cfds for sub in cfd.normalize()
        ]
        #: the working copy's violations, built on the first conflict check
        #: and re-filed by every edit after it
        self._violations: Optional[ViolationState] = None

    # -- inspection -------------------------------------------------------------------

    def modified_cells(self) -> List[CellChange]:
        """All cells the repair modified (the red cells of Fig. 5)."""
        return list(self.repair.changes)

    def modified_tuples(self) -> List[int]:
        """Tuple ids with at least one modified cell."""
        return sorted(self.repair.changed_tids())

    def tuple_diff(self, tid: int) -> Dict[str, Tuple[Any, Any]]:
        """``{attribute: (original value, repaired value)}`` for changed cells of ``tid``."""
        diff: Dict[str, Tuple[Any, Any]] = {}
        for change in self.repair.changes_for(tid):
            diff[change.attribute] = (change.old_value, change.new_value)
        return diff

    def alternatives(self, tid: int, attribute: str) -> List[Tuple[Any, float]]:
        """Ranked alternative values for a modified cell (the pop-up of Fig. 5)."""
        for change in self.repair.changes:
            if change.tid == tid and change.attribute == attribute:
                return list(change.alternatives)
        raise RepairError(f"cell ({tid}, {attribute!r}) was not modified by the repair")

    def summary(self) -> Dict[str, Any]:
        """Headline numbers for the review screen."""
        return {
            "modified_tuples": len(self.repair.changed_tids()),
            "modified_cells": len(self.repair.changes),
            "total_cost": self.repair.total_cost,
            "iterations": self.repair.iterations,
            "residual_violations": self.repair.residual_violations,
            "overrides": sum(
                1 for decision in self.decisions.values() if decision.action == "override"
            ),
            "reverts": sum(
                1 for decision in self.decisions.values() if decision.action == "revert"
            ),
        }

    # -- decisions ----------------------------------------------------------------------

    def accept(self, tid: int, attribute: str) -> None:
        """Accept the repaired value for one cell."""
        self._require_modified(tid, attribute)
        self.decisions[(tid, attribute)] = ReviewDecision((tid, attribute), "accept")

    def accept_all(self) -> None:
        """Accept every modification."""
        for change in self.repair.changes:
            self.accept(change.tid, change.attribute)

    def override(self, tid: int, attribute: str, value: Any) -> List[ConflictNote]:
        """Replace the repaired value of a cell with a user-chosen value.

        Returns the conflicts the new value introduces with other tuples —
        the "background incremental detection" of the demo.
        """
        self._require_modified(tid, attribute)
        self._edit(tid, attribute, value)
        self.decisions[(tid, attribute)] = ReviewDecision(
            (tid, attribute), "override", value
        )
        return self.conflicts_for(tid)

    def revert(self, tid: int, attribute: str) -> List[ConflictNote]:
        """Put the original (pre-repair) value back into a cell."""
        self._require_modified(tid, attribute)
        original = self.repair.original.get(tid).get(attribute)
        self._edit(tid, attribute, original)
        self.decisions[(tid, attribute)] = ReviewDecision(
            (tid, attribute), "revert", original
        )
        return self.conflicts_for(tid)

    # -- conflict checking -------------------------------------------------------------------

    def conflicts_for(self, tid: int) -> List[ConflictNote]:
        """Violations involving ``tid`` in the current working data.

        Read off the review's violation state, which every edit keeps
        current: a check reads the sub-CFDs' violations, not the working
        copy's rows.
        """
        if self._violations is None:
            self._violations = ViolationState(
                [sub for _cfd, sub in self._subs], self.working
            )
        notes: List[ConflictNote] = []
        for index, (cfd, sub) in enumerate(self._subs):
            scan = self._violations.scan(index)
            for violating_tid, _pattern in scan.single_tuple_violations():
                if violating_tid == tid:
                    notes.append(
                        ConflictNote(
                            cfd_id=cfd.identifier,
                            kind="single",
                            tids=(tid,),
                            attribute=sub.rhs[0],
                        )
                    )
            for _pattern, _key, tids in scan.multi_tuple_violation_groups():
                if tid in tids:
                    notes.append(
                        ConflictNote(
                            cfd_id=cfd.identifier,
                            kind="multi",
                            tids=tuple(tids),
                            attribute=sub.rhs[0],
                        )
                    )
        return notes

    def pending_cells(self) -> List[Cell]:
        """Modified cells the reviewer has not decided on yet."""
        return [
            (change.tid, change.attribute)
            for change in self.repair.changes
            if (change.tid, change.attribute) not in self.decisions
        ]

    def finalise(self) -> Relation:
        """Return the reviewed relation (working copy with all decisions applied)."""
        return self.working.copy()

    # -- internal ---------------------------------------------------------------------------

    def _edit(self, tid: int, attribute: str, value: Any) -> None:
        """Write ``value`` into the working copy and re-file the tuple."""
        old_row = self.working.update(tid, {attribute: value})
        if self._violations is not None:
            self._violations.refile(tid, old_row, self.working.get(tid), (attribute,))

    def _require_modified(self, tid: int, attribute: str) -> None:
        if (tid, attribute) not in self.repair.changed_cells:
            raise RepairError(
                f"cell ({tid}, {attribute!r}) was not modified by the repair"
            )
