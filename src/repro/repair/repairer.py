"""The data cleanser: heuristic CFD-based repair by value modification.

Implements the BatchRepair approach of the paper's companion article (Cong,
Fan, Geerts, Jia, Ma, VLDB 2007), built on the cost model of Bohannon et al.
(SIGMOD 2005):

* a candidate repair is obtained from the original data using attribute
  value modifications on the violations;
* the algorithm aims for a repair that *minimally differs* from the original
  data under the cost model; finding the optimum is intractable, so the
  algorithm is a greedy heuristic;
* multi-tuple violations of variable CFDs are resolved by merging the RHS
  cells of the conflicting tuples into one equivalence class and later
  assigning the class the value with the smallest total modification cost
  (typically the weighted majority value);
* single-tuple violations of constant CFDs are resolved either by setting
  the RHS cell to the required constant or — when that is more expensive or
  contradicts an earlier resolution — by modifying one LHS cell so that the
  pattern no longer applies.

The repairer never runs forever: each round either removes violations or the
round limit is hit, in which case the remaining violations are reported as
``residual_violations`` (this mirrors the heuristic nature acknowledged by
the papers).

A repair keeps its violations between rounds: one
:class:`~repro.core.satisfaction.ViolationState` per call is built over the
loaded working relation, every cell change re-files the changed tuple, and
the tuples the source admits in a round (its ``begin_round`` returns their
tids) are filed before the round reads its work items off the state.  A
round therefore costs its changes, not the working relation.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.cfd import CFD
from ..core.pattern import PatternTuple
from ..core.satisfaction import ViolationState
from ..engine.relation import Relation
from ..errors import RepairError
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .cost import CostModel
from .eqclass import Cell, EquivalenceClasses
from .source import NativeRepairSource, RepairDataSource

#: Prefix of invented ("fresh") values used when no existing value can break a
#: violation; mirrors the fresh-value device of the repair papers.
FRESH_VALUE_PREFIX = "__unknown_"


@dataclass(frozen=True)
class CellChange:
    """One repaired cell: where, what it was, what it became, and why."""

    tid: int
    attribute: str
    old_value: Any
    new_value: Any
    cost: float
    reason: str
    alternatives: Tuple[Tuple[Any, float], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (used by the review UI)."""
        return {
            "tid": self.tid,
            "attribute": self.attribute,
            "old": self.old_value,
            "new": self.new_value,
            "cost": self.cost,
            "reason": self.reason,
            "alternatives": [list(pair) for pair in self.alternatives],
        }


@dataclass
class Repair:
    """A candidate repair: the repaired relation plus provenance."""

    original: Relation
    repaired: Relation
    changes: List[CellChange] = field(default_factory=list)
    iterations: int = 0
    residual_violations: int = 0
    #: which data source planned the repair: ``"native"`` (full in-memory
    #: relation), ``"backend"`` (resident source) or ``"scoped"``
    #: (incremental repair's batch-scoped source).  For the last two,
    #: ``original`` and ``repaired`` hold only the partial relation the
    #: planner saw, and the changes list is the complete ground truth of
    #: the repair.
    source: str = "native"

    @property
    def total_cost(self) -> float:
        """Sum of the costs of all cell changes."""
        return sum(change.cost for change in self.changes)

    @property
    def changed_cells(self) -> Dict[Cell, CellChange]:
        """Map ``(tid, attribute)`` to its (final) change."""
        return {(change.tid, change.attribute): change for change in self.changes}

    def changed_tids(self) -> Set[int]:
        """Tuples touched by the repair."""
        return {change.tid for change in self.changes}

    def changes_for(self, tid: int) -> List[CellChange]:
        """Changes applied to tuple ``tid``."""
        return [change for change in self.changes if change.tid == tid]

    def is_noop(self) -> bool:
        """Whether the repair left the data untouched."""
        return not self.changes

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary."""
        return {
            "changes": [change.to_dict() for change in self.changes],
            "total_cost": self.total_cost,
            "iterations": self.iterations,
            "residual_violations": self.residual_violations,
        }


class BatchRepairer:
    """Greedy equivalence-class based repair of CFD violations."""

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        max_iterations: int = 25,
        restrict_to_tids: Optional[Iterable[int]] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.cost_model = cost_model or CostModel.uniform()
        self.max_iterations = max_iterations
        #: when set, only these tuples may be modified and only violations that
        #: involve them are resolved (used by incremental repair).
        self.restrict_to_tids: Optional[Set[int]] = (
            set(restrict_to_tids) if restrict_to_tids is not None else None
        )
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._fresh_counter = 0
        #: the data source of the repair in progress (set per call); the
        #: planner itself never touches storage — every relational answer
        #: comes through this object
        self._source: Optional[RepairDataSource] = None
        #: the source's value frequencies, read on first use (see
        #: :meth:`_column_frequencies`)
        self._frequencies: Optional[Dict[str, Counter]] = None
        #: the violations of the working relation, kept across the rounds
        #: of the repair in progress (set per call)
        self._violations: Optional[ViolationState] = None

    # -- public API -------------------------------------------------------------------

    def repair(self, relation: Relation, cfds: Sequence[CFD]) -> Repair:
        """Compute a candidate repair of ``relation`` with respect to ``cfds``."""
        return self.repair_with_source(NativeRepairSource(relation), cfds)

    def repair_with_source(
        self, source: RepairDataSource, cfds: Sequence[CFD]
    ) -> Repair:
        """Compute a candidate repair over the data a :class:`RepairDataSource` serves.

        This is the planner half of the PR 7 split: the greedy algorithm
        below reads and mutates only the working relation the source
        loads, and the source decides where violations, group members and
        value frequencies come from — a full in-memory copy
        (:class:`~repro.repair.source.NativeRepairSource`, the parity
        oracle) or the storage backend's resident copy
        (:class:`~repro.repair.source.BackendRepairSource`, which
        materialises just the violating tuples plus the group closures of
        the planner's own changes), or an update batch's groups for
        incremental repair (:class:`~repro.repair.source.ScopedRepairSource`).
        Value frequencies are asked for only when a resolution first needs
        them.  Every price goes through a :meth:`CostModel.memoised` copy
        of :attr:`cost_model` that lives as long as the call, so each
        distinct pair of values costs one edit distance per call.  The
        violations are kept between rounds in one
        :class:`~repro.core.satisfaction.ViolationState` that lives as long
        as the call too.
        """
        self._source = source
        self._frequencies = None
        cost_model = self.cost_model
        self.cost_model = cost_model.memoised()
        try:
            return self._plan(source, cfds)
        finally:
            self.cost_model = cost_model
            self._violations = None

    def _plan(self, source: RepairDataSource, cfds: Sequence[CFD]) -> Repair:
        """The greedy rounds of :meth:`repair_with_source` over ``source``."""
        for cfd in cfds:
            cfd.validate_against(source.attribute_names())
        working = source.load(cfds)
        self._violations = ViolationState(
            [sub for cfd in cfds for sub in cfd.normalize()], working
        )
        change_log: Dict[Cell, CellChange] = {}
        original_values: Dict[Cell, Any] = {}

        iterations = 0
        residual = 0
        # Snapshot of the best (fewest-violations) state seen so far, so a
        # round that makes things worse on heavily interacting CFD sets can be
        # rolled back instead of returned.
        best_state: Optional[Tuple[int, Relation, Dict[Cell, CellChange]]] = None
        while iterations < self.max_iterations:
            iterations += 1
            self._begin_round(source, working)
            violations = self._collect_violations(working)
            if best_state is None or len(violations) < best_state[0]:
                best_state = (len(violations), working.copy(), dict(change_log))
            if not violations:
                residual = 0
                break
            # Equivalence classes are rebuilt every round: values are assigned
            # eagerly at the end of each resolution, so carrying classes across
            # rounds would chain unrelated groups together through already
            # repaired cells and over-merge (see the repair tests for the
            # measure-code/measure-name cascade this prevents).
            classes = EquivalenceClasses()
            progressed = False
            for violation in violations:
                if self._resolve(
                    violation, working, classes, change_log, original_values
                ):
                    progressed = True
            if not progressed:
                residual = len(violations)
                break
        else:
            self._begin_round(source, working)
            residual = len(self._collect_violations(working))

        if best_state is not None and residual > best_state[0]:
            # The heuristic diverged; fall back to the best intermediate state.
            residual, working, change_log = best_state

        changes = sorted(
            change_log.values(), key=lambda change: (change.tid, change.attribute)
        )
        # Drop changes that ended where they started (can happen when a class
        # later converged back to the original value).
        changes = [
            change for change in changes if change.old_value != change.new_value
        ]
        return Repair(
            original=source.original(),
            repaired=working,
            changes=changes,
            iterations=iterations,
            residual_violations=residual,
            source=source.kind,
        )

    # -- violation collection ------------------------------------------------------------

    def _begin_round(self, source: RepairDataSource, working: Relation) -> None:
        """Let ``source`` grow ``working`` for the next read, and file what it admitted."""
        admitted = source.begin_round(working)
        if admitted:
            self._violations.file([(tid, working.get(tid)) for tid in admitted])

    def _collect_violations(self, working: Relation):
        """Collect violations as resolution work items, cheapest-to-fix first.

        Each sub-CFD is read off the kept state.
        """
        state = self._violations
        restrict = self.restrict_to_tids
        items: List[Tuple[str, CFD, PatternTuple, Any]] = []
        for index, sub in enumerate(state.cfds):
            # the items keep the order the planner's greedy decisions depend
            # on: sub by sub, singles by tid, then groups by first member
            scan = state.scan(index)
            for tid, pattern_index in scan.single_tuple_violations():
                if restrict is not None and tid not in restrict:
                    continue
                items.append(("single", sub, sub.patterns[pattern_index], tid))
            for pattern_index, _key, tids in scan.multi_tuple_violation_groups():
                if restrict is not None and restrict.isdisjoint(tids):
                    continue
                items.append(("multi", sub, sub.patterns[pattern_index], tuple(tids)))
        return items

    # -- resolution -----------------------------------------------------------------------

    def _resolve(
        self,
        violation,
        working: Relation,
        classes: EquivalenceClasses,
        change_log: Dict[Cell, CellChange],
        original_values: Dict[Cell, Any],
    ) -> bool:
        """Resolve one violation; whether a cell changed (the round's progress)."""
        kind, cfd, pattern, payload = violation
        if kind == "single":
            return self._resolve_single(
                cfd, pattern, payload, working, classes, change_log, original_values
            )
        return self._resolve_multi(
            cfd, pattern, payload, working, classes, change_log, original_values
        )

    def _resolve_single(
        self,
        cfd: CFD,
        pattern: PatternTuple,
        tid: int,
        working: Relation,
        classes: EquivalenceClasses,
        change_log: Dict[Cell, CellChange],
        original_values: Dict[Cell, Any],
    ) -> bool:
        row = working.get(tid)
        if not cfd.single_tuple_violation(row, pattern):
            return False  # already fixed by an earlier resolution this round
        rhs_attribute = cfd.rhs[0]
        required = pattern.value(rhs_attribute).constant
        rhs_cell: Cell = (tid, rhs_attribute)

        # Option A: set the RHS cell to the required constant.
        rhs_cost = self.cost_model.change_cost(
            tid, rhs_attribute, row.get(rhs_attribute), required
        )
        # Option B: break the LHS match by changing the cheapest constant LHS cell.
        lhs_option = self._cheapest_lhs_break(cfd, pattern, tid, row)

        may_pin = not (
            classes.is_pinned(rhs_cell)
            and classes.pinned_value(rhs_cell) != required
        )
        if may_pin and (lhs_option is None or rhs_cost <= lhs_option[2]):
            classes.add(rhs_cell)
            classes.pin(rhs_cell, required)
            alternatives = self._ranked_alternatives(working, classes, rhs_cell)
            self._apply_class_value(
                working,
                classes,
                rhs_cell,
                required,
                cfd.identifier,
                change_log,
                original_values,
                alternatives,
            )
            return True
        if lhs_option is None:
            # Cannot pin and cannot break the LHS: change the RHS cell to a
            # fresh value so at least this constant violation disappears.
            fresh = self._fresh_value()
            self._record_change(
                working, (tid, rhs_attribute), fresh, cfd.identifier,
                change_log, original_values, alternatives=(),
                fresh=True,
            )
            return True
        lhs_attribute, new_value, cost, fresh = lhs_option
        self._record_change(
            working,
            (tid, lhs_attribute),
            new_value,
            cfd.identifier,
            change_log,
            original_values,
            alternatives=(),
            fresh=fresh,
        )
        return True

    def _resolve_multi(
        self,
        cfd: CFD,
        pattern: PatternTuple,
        tids: Tuple[int, ...],
        working: Relation,
        classes: EquivalenceClasses,
        change_log: Dict[Cell, CellChange],
        original_values: Dict[Cell, Any],
    ) -> bool:
        rhs_attribute = cfd.rhs[0]
        live_tids = [tid for tid in tids if tid in working]
        if len(live_tids) < 2:
            return False
        current_values = {
            (tid, rhs_attribute): working.value(tid, rhs_attribute) for tid in live_tids
        }
        values = set(current_values.values())
        values.discard(None)
        if len(values) <= 1:
            return False  # already resolved earlier this round
        cells = list(current_values)
        if self.restrict_to_tids is not None:
            changeable = [cell for cell in cells if cell[0] in self.restrict_to_tids]
            if not changeable:
                return False

        # The group's RHS cells form an equivalence class *local to this
        # violation*: a fresh union-find is used so that one corrupted LHS
        # value bridging two large groups (e.g. a mistyped key) cannot chain
        # them into a single giant class and rewrite half the column.
        group_classes = EquivalenceClasses()
        anchor = cells[0]
        group_classes.add(anchor)
        pinned_conflict = False
        for cell in cells:
            group_classes.add(cell)
            pinned = classes.pinned_value(cell) if cell in classes else None
            if pinned is not None:
                try:
                    group_classes.pin(cell, pinned)
                except RepairError:
                    pinned_conflict = True
                    break
        if not pinned_conflict:
            try:
                for cell in cells[1:]:
                    group_classes.union(anchor, cell)
            except RepairError:
                pinned_conflict = True
            else:
                self.telemetry.inc("repair.classes_merged", len(cells) - 1)
        if pinned_conflict:
            # Cells pinned to different constants: break the group instead by
            # changing an LHS cell of one conflicting tuple.
            row = working.get(live_tids[-1])
            option = self._cheapest_lhs_break(cfd, pattern, live_tids[-1], row)
            if option is None:
                return False
            lhs_attribute, new_value, _cost, fresh = option
            self._record_change(
                working,
                (live_tids[-1], lhs_attribute),
                new_value,
                cfd.identifier,
                change_log,
                original_values,
                alternatives=(),
                fresh=fresh,
            )
            return True

        protected_values = None
        if self.restrict_to_tids is not None:
            # Incremental repair: only updated tuples may change, so when a
            # protected member exists the class may take only a value a
            # protected member carries.  Offering the updated values too
            # lets a cost tie pick one the protected cell can never take.
            protected_values = [
                value
                for cell, value in current_values.items()
                if cell[0] not in self.restrict_to_tids and value is not None
            ] or None
        best_value, _best_cost, ranked = group_classes.choose_value(
            anchor, current_values, self.cost_model, only=protected_values
        )
        return self._apply_class_value(
            working,
            group_classes,
            anchor,
            best_value,
            cfd.identifier,
            change_log,
            original_values,
            tuple(ranked),
        )

    # -- helpers -----------------------------------------------------------------------------

    def _cheapest_lhs_break(
        self,
        cfd: CFD,
        pattern: PatternTuple,
        tid: int,
        row: Mapping[str, Any],
    ) -> Optional[Tuple[str, Any, float, bool]]:
        """Cheapest LHS modification that makes ``pattern`` no longer apply to ``row``.

        Only constant LHS positions can be broken by a value change (a
        wildcard matches everything).  Returns ``(attribute, new_value, cost,
        is_fresh)`` or ``None`` when the LHS has no constant position.
        """
        if self.restrict_to_tids is not None and tid not in self.restrict_to_tids:
            return None
        best: Optional[Tuple[str, Any, float, bool]] = None
        for attribute in cfd.lhs:
            pattern_value = pattern.value(attribute)
            if not pattern_value.is_constant:
                continue
            candidate, fresh = self._non_matching_value(
                attribute, pattern_value.constant
            )
            cost = self.cost_model.change_cost(
                tid, attribute, row.get(attribute), candidate, fresh=fresh
            )
            if best is None or cost < best[2]:
                best = (attribute, candidate, cost, fresh)
        return best

    def _non_matching_value(self, attribute: str, avoid: Any) -> Tuple[Any, bool]:
        """A plausible value for ``attribute`` different from ``avoid``."""
        frequencies = self._column_frequencies().get(attribute, Counter())
        for value, _count in frequencies.most_common():
            if value != avoid and value is not None:
                return value, False
        return self._fresh_value(), True

    def _fresh_value(self) -> str:
        self._fresh_counter += 1
        return f"{FRESH_VALUE_PREFIX}{self._fresh_counter}__"

    def _ranked_alternatives(
        self,
        working: Relation,
        classes: EquivalenceClasses,
        cell: Cell,
    ) -> Tuple[Tuple[Any, float], ...]:
        attribute = cell[1]
        members = classes.members(cell)
        current_values = {member: working.value(*member) for member in members}
        frequencies = self._column_frequencies().get(attribute, Counter())
        frequent = [value for value, _count in frequencies.most_common(5)]
        _best, _cost, ranked = classes.choose_value(
            cell, current_values, self.cost_model, candidates=frequent
        )
        return tuple(ranked)

    def _apply_class_value(
        self,
        working: Relation,
        classes: EquivalenceClasses,
        cell: Cell,
        value: Any,
        reason: str,
        change_log: Dict[Cell, CellChange],
        original_values: Dict[Cell, Any],
        alternatives: Tuple[Tuple[Any, float], ...],
    ) -> bool:
        """Write ``value`` to every changeable member; whether any cell changed."""
        changed = False
        for member in classes.members(cell):
            member_tid, member_attribute = member
            if self.restrict_to_tids is not None and member_tid not in self.restrict_to_tids:
                continue
            if member_tid not in working:
                continue
            if working.value(member_tid, member_attribute) == value:
                continue
            self._record_change(
                working,
                member,
                value,
                reason,
                change_log,
                original_values,
                alternatives,
            )
            changed = True
        return changed

    def _record_change(
        self,
        working: Relation,
        cell: Cell,
        new_value: Any,
        reason: str,
        change_log: Dict[Cell, CellChange],
        original_values: Dict[Cell, Any],
        alternatives: Tuple[Tuple[Any, float], ...],
        fresh: bool = False,
    ) -> None:
        tid, attribute = cell
        old_row = working.update(tid, {attribute: new_value})
        original = original_values.setdefault(cell, old_row.get(attribute))
        self._violations.refile(tid, old_row, working.get(tid), (attribute,))
        # the source may need to grow the working relation over the groups
        # this change moved the tuple into (a no-op for the native source)
        if self._source is not None:
            self._source.note_change(working, tid, attribute)
        cost = self.cost_model.change_cost(tid, attribute, original, new_value, fresh=fresh)
        change_log[cell] = CellChange(
            tid=tid,
            attribute=attribute,
            old_value=original,
            new_value=new_value,
            cost=cost,
            reason=reason,
            alternatives=alternatives,
        )

    def _column_frequencies(self) -> Dict[str, Counter]:
        """The source's per-attribute value frequencies, read on first use.

        Only single-tuple resolutions and LHS breaks rank values by
        frequency, so a repair that needs neither never pays for the scan
        or the per-attribute aggregates.
        """
        if self._frequencies is None:
            self._frequencies = self._source.column_frequencies()
        return self._frequencies


def repair_quality(
    repair: Repair,
    ground_truth: Relation,
    dirty: Optional[Relation] = None,
) -> Dict[str, float]:
    """Precision / recall / F1 of a repair against a known clean ground truth.

    A cell is *corrupted* when the dirty relation differs from the ground
    truth; a cell is *changed* when the repair modified it.  Precision is the
    fraction of changed cells restored to their true value; recall is the
    fraction of corrupted cells restored.  This is the standard measure the
    companion repair paper reports.
    """
    dirty = dirty or repair.original
    corrupted: Set[Cell] = set()
    for tid, truth_row in ground_truth.rows():
        if tid not in dirty:
            continue
        dirty_row = dirty.get(tid)
        for attribute, truth_value in truth_row.items():
            if dirty_row.get(attribute) != truth_value:
                corrupted.add((tid, attribute))
    changed = set(repair.changed_cells)
    correctly_restored = {
        (tid, attribute)
        for (tid, attribute) in changed
        if tid in ground_truth
        and repair.repaired.get(tid).get(attribute) == ground_truth.get(tid).get(attribute)
    }
    fixed_corrupted = correctly_restored & corrupted
    precision = len(correctly_restored) / len(changed) if changed else 1.0
    recall = len(fixed_corrupted) / len(corrupted) if corrupted else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if (precision + recall) > 0
        else 0.0
    )
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "changed_cells": float(len(changed)),
        "corrupted_cells": float(len(corrupted)),
    }
