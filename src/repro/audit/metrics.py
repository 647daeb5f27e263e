"""Data quality metrics: the auditor's clean/dirty classification.

The paper's data auditor categorises each tuple ``t`` as

* **verified clean** — ``t`` violates no CFD *and* there exists a CFD with a
  constant in its RHS that applies to ``t`` (so at least one constraint
  actively vouches for its values);
* **probably clean** — ``t`` violates no CFD;
* **arguably clean** — ``t`` is probably clean *or* ``t`` is only involved in
  multi-tuple violations in which the bulk of the jointly violating tuples
  agree with ``t`` (substantial evidence that ``t`` itself is correct);

and everything else is **dirty**.  Note verified ⊆ probably ⊆ arguably.  A
similar categorisation exists at the attribute-value (cell) level, which the
bar chart of the paper's Fig. 4 displays per attribute.
"""

from __future__ import annotations

import enum
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.cfd import CFD, PatternMatcher
from ..detection.violations import ViolationReport
from ..engine.relation import Relation

if TYPE_CHECKING:  # pragma: no cover
    from ..sources.base import TupleSource


class Cleanliness(enum.Enum):
    """Quality category of a tuple or cell, from strongest to weakest."""

    VERIFIED = "verified clean"
    PROBABLY = "probably clean"
    ARGUABLY = "arguably clean"
    DIRTY = "dirty"


#: Ordering used when aggregating (stronger categories imply weaker ones).
_ORDER = {
    Cleanliness.VERIFIED: 0,
    Cleanliness.PROBABLY: 1,
    Cleanliness.ARGUABLY: 2,
    Cleanliness.DIRTY: 3,
}


@dataclass
class TupleClassification:
    """Classification of every tuple of a relation.

    ``categories`` holds per-tid categories; ``aggregate`` holds category
    counts known only in bulk (the resident audit classifies clean tuples
    from backend aggregates without materialising them, so their tids are
    never enumerated).  ``counts``/``percentages`` combine both.
    """

    categories: Dict[int, Cleanliness] = field(default_factory=dict)
    aggregate: Dict[Cleanliness, int] = field(default_factory=dict)

    def total(self) -> int:
        """Number of classified tuples, enumerated or aggregate."""
        return len(self.categories) + sum(self.aggregate.values())

    def counts(self) -> Dict[Cleanliness, int]:
        """Number of tuples per category."""
        totals: Dict[Cleanliness, int] = {category: 0 for category in Cleanliness}
        for category in self.categories.values():
            totals[category] += 1
        for category, count in self.aggregate.items():
            totals[category] += count
        return totals

    def percentages(self) -> Dict[Cleanliness, float]:
        """Percentage of tuples per category (0 when the relation is empty)."""
        total = self.total()
        if total == 0:
            return {category: 0.0 for category in Cleanliness}
        return {
            category: 100.0 * count / total for category, count in self.counts().items()
        }

    def cumulative_percentages(self) -> Dict[Cleanliness, float]:
        """Cumulative view: verified ⊆ probably ⊆ arguably (matches the paper's bars)."""
        raw = self.counts()
        total = self.total() or 1
        verified = raw[Cleanliness.VERIFIED]
        probably = verified + raw[Cleanliness.PROBABLY]
        arguably = probably + raw[Cleanliness.ARGUABLY]
        return {
            Cleanliness.VERIFIED: 100.0 * verified / total,
            Cleanliness.PROBABLY: 100.0 * probably / total,
            Cleanliness.ARGUABLY: 100.0 * arguably / total,
            Cleanliness.DIRTY: 100.0 * raw[Cleanliness.DIRTY] / total,
        }

    def of(self, tid: int) -> Cleanliness:
        """Category of one tuple."""
        return self.categories[tid]


@dataclass
class AttributeClassification:
    """Per-attribute cell-level classification."""

    #: attribute -> category -> number of cells
    counts: Dict[str, Dict[Cleanliness, int]] = field(default_factory=dict)

    def percentages(self) -> Dict[str, Dict[Cleanliness, float]]:
        """Per-attribute percentages (the bar chart of Fig. 4)."""
        result: Dict[str, Dict[Cleanliness, float]] = {}
        for attribute, per_category in self.counts.items():
            total = sum(per_category.values()) or 1
            result[attribute] = {
                category: 100.0 * count / total
                for category, count in per_category.items()
            }
        return result

    def dirtiest_attributes(self, top: int = 3) -> List[Tuple[str, int]]:
        """Attributes ranked by number of dirty cells."""
        ranked = sorted(
            (
                (attribute, per_category.get(Cleanliness.DIRTY, 0))
                for attribute, per_category in self.counts.items()
            ),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return ranked[:top]


def _applying_by_key(subs: Sequence[CFD]) -> Callable[[Mapping[str, Any]], FrozenSet[str]]:
    """The RHS attributes of the constant-RHS ``subs`` whose pattern applies to a row.

    Applicability reads only a row's LHS values
    (:meth:`~repro.core.cfd.PatternMatcher.applies_to_key`), so it is
    decided once per distinct key of each LHS and looked up for every
    other row carrying that key.
    """
    by_lhs: Dict[Tuple[str, ...], List[CFD]] = defaultdict(list)
    for sub in subs:
        by_lhs[sub.lhs].append(sub)
    decided: Dict[Tuple[str, ...], Dict[Tuple[Any, ...], FrozenSet[str]]] = {
        lhs: {} for lhs in by_lhs
    }

    def applying(row: Mapping[str, Any]) -> FrozenSet[str]:
        found: FrozenSet[str] = frozenset()
        for lhs, members in by_lhs.items():
            key = tuple(map(row.get, lhs))
            attributes = decided[lhs].get(key)
            if attributes is None:
                attributes = decided[lhs][key] = frozenset(
                    sub.rhs[0] for sub in members if sub.matchers[0].applies_to_key(key)
                )
            found = found | attributes if found else attributes
        return found

    return applying


def _applicable_constant_rhs(cfds: Sequence[CFD]) -> List[Tuple[CFD, CFD]]:
    """Pairs of (parent CFD, normalised sub-CFD) having a constant RHS pattern."""
    pairs: List[Tuple[CFD, CFD]] = []
    for cfd in cfds:
        for sub in cfd.normalize():
            if sub.matchers[0].rhs_constants:
                pairs.append((cfd, sub))
    return pairs


class MajorityTally:
    """The RHS values of a report's multi-tuple violations, counted once each.

    A member of a multi-tuple violation is arguably clean when more than
    ``majority`` of the violation's other members present in ``relation``
    hold its RHS value.  Re-reading every other member for each member
    costs O(k²) per violation of k members; the tally counts a violation's
    values once, on first use, and answers each member from the counts.
    Violations are named by their position in ``report.violations``, and
    one tally serves both the tuple and the cell classification of an
    audit.
    """

    def __init__(self, relation: Relation, report: ViolationReport):
        self.relation = relation
        self.report = report
        #: violation position -> (RHS value counts, members present)
        self._counts: Dict[int, Tuple[Counter, int]] = {}

    def agrees(self, tid: int, position: int, majority: float) -> bool:
        """Whether the bulk of violation ``position``'s other members agree with ``tid``."""
        violation = self.report.violations[position]
        attribute = violation.rhs_attribute
        counted = self._counts.get(position)
        if counted is None:
            present = [member for member in violation.tids if member in self.relation]
            values = Counter(self.relation.value(member, attribute) for member in present)
            counted = self._counts[position] = (values, len(present))
        values, present = counted
        own_value = self.relation.value(tid, attribute)
        others = present - 1  # ``tid`` is a present member itself
        if others <= 0:
            return False
        # the count includes ``tid``; a value unequal to itself (NaN)
        # agrees with no one
        agreeing = values[own_value] - 1 if own_value == own_value else 0
        return agreeing / others > majority


def _positions_by_tid(report: ViolationReport) -> Dict[int, List[int]]:
    """Per tid, the positions in ``report.violations`` of the violations it is in."""
    positions: Dict[int, List[int]] = defaultdict(list)
    for position, violation in enumerate(report.violations):
        for tid in violation.tids:
            positions[tid].append(position)
    return positions


def _verdicts(
    tally: MajorityTally, tid: int, positions: Sequence[int], majority: float
) -> Tuple[bool, Dict[str, bool]]:
    """Decide each of ``tid``'s violations once, for the tuple and its cells.

    A violation's verdict holds when it is multi-tuple and its bulk agrees
    with ``tid``.  The cell ``(tid, A)`` is arguably clean when the
    verdicts of all of ``tid``'s violations on the RHS attribute ``A``
    hold, and the tuple when all of its verdicts hold.  Returns the
    tuple's verdict and one verdict per implicated attribute.
    """
    violations = tally.report.violations
    cells: Dict[str, bool] = {}
    for position in positions:
        violation = violations[position]
        holds = violation.is_multi and tally.agrees(tid, position, majority)
        attribute = violation.rhs_attribute
        cells[attribute] = cells.get(attribute, True) and holds
    return bool(cells) and all(cells.values()), cells


def classify_tuples(
    relation: Relation,
    cfds: Sequence[CFD],
    report: ViolationReport,
    majority: float = 0.5,
    tally: Optional[MajorityTally] = None,
) -> TupleClassification:
    """Classify every tuple of ``relation`` per the paper's three categories.

    ``majority`` is the fraction of jointly violating tuples that must agree
    with ``t`` for it to count as "arguably clean" (strictly greater than).
    ``tally`` may be shared with :func:`classify_cells` over the same
    relation and report.
    """
    tally = tally if tally is not None else MajorityTally(relation, report)
    dirty_map = _positions_by_tid(report)
    constant_matchers = [sub.matchers[0] for _parent, sub in _applicable_constant_rhs(cfds)]
    classification = TupleClassification()
    for tid, row in relation.stored_rows():
        involved = dirty_map.get(tid)
        if not involved:
            verified = any(matcher.applies_to(row) for matcher in constant_matchers)
            classification.categories[tid] = (
                Cleanliness.VERIFIED if verified else Cleanliness.PROBABLY
            )
            continue
        arguably, _cells = _verdicts(tally, tid, involved, majority)
        classification.categories[tid] = (
            Cleanliness.ARGUABLY if arguably else Cleanliness.DIRTY
        )
    return classification


def classify_cells(
    relation: Relation,
    cfds: Sequence[CFD],
    report: ViolationReport,
    majority: float = 0.5,
    tally: Optional[MajorityTally] = None,
) -> AttributeClassification:
    """Cell-level classification aggregated per attribute.

    A cell ``(t, A)`` is implicated in a violation when ``A`` is the RHS
    attribute of a violation involving ``t``.  Implicated cells are dirty
    unless every implicating violation is a multi-tuple violation whose bulk
    agrees with ``t`` (arguably clean).  Non-implicated cells are verified
    clean when some constant-RHS CFD on ``A`` applies to ``t``, otherwise
    probably clean.
    """
    tally = tally if tally is not None else MajorityTally(relation, report)
    dirty_map = _positions_by_tid(report)
    per_attribute_constant: Dict[str, List[PatternMatcher]] = defaultdict(list)
    for _parent, sub in _applicable_constant_rhs(cfds):
        per_attribute_constant[sub.rhs[0]].append(sub.matchers[0])

    counts: Dict[str, Dict[Cleanliness, int]] = {
        attribute: {category: 0 for category in Cleanliness}
        for attribute in relation.attribute_names
    }
    for tid, row in relation.stored_rows():
        involved = dirty_map.get(tid)
        verdicts = _verdicts(tally, tid, involved, majority)[1] if involved else {}
        for attribute in relation.attribute_names:
            holds = verdicts.get(attribute)
            if holds is not None:
                category = Cleanliness.ARGUABLY if holds else Cleanliness.DIRTY
                counts[attribute][category] += 1
                continue
            verified = any(
                matcher.applies_to(row)
                for matcher in per_attribute_constant.get(attribute, [])
            )
            category = Cleanliness.VERIFIED if verified else Cleanliness.PROBABLY
            counts[attribute][category] += 1
    return AttributeClassification(counts=counts)


def classify_source(
    source: "TupleSource",
    region: Relation,
    cfds: Sequence[CFD],
    report: ViolationReport,
    majority: float = 0.5,
) -> Tuple[TupleClassification, AttributeClassification]:
    """Resident counterpart of :func:`classify_tuples` and :func:`classify_cells`.

    One pass over ``region``, which holds exactly the dirty tuples (every
    member of every violation is dirty, so the majority checks see the
    same rows the native path would).  The pass decides each (tuple,
    violation) verdict once (:func:`_verdicts`) and feeds both
    classifications: a dirty tuple, or an implicated cell, is arguably
    clean when its verdicts hold and dirty otherwise.  The same pass
    counts the dirty tuples, and the implicated cells per attribute, that
    a constant-RHS sub applies to, deciding each sub's applicability once
    per distinct LHS key (:func:`_applying_by_key`).  The clean side is
    classified in bulk, with no scan: verified clean is a pushed-down
    applicability count minus that dirty count, and the rest of the clean
    tuples (or cells) are probably clean.  The counts and percentages match the native
    classifications exactly.
    """
    tally = MajorityTally(region, report)
    dirty_map = _positions_by_tid(report)
    constant_subs = [sub for _parent, sub in _applicable_constant_rhs(cfds)]
    applying_to = _applying_by_key(constant_subs)
    attributes = source.attribute_names()
    tuples = TupleClassification()
    cells: Dict[str, Dict[Cleanliness, int]] = {
        attribute: {category: 0 for category in Cleanliness}
        for attribute in attributes
    }
    #: dirty tuples, and implicated cells per attribute, a constant-RHS sub applies to
    dirty_applicable = 0
    cells_applicable: Dict[str, int] = defaultdict(int)
    for tid, row in region.stored_rows():
        arguably, verdicts = _verdicts(tally, tid, dirty_map.get(tid, ()), majority)
        tuples.categories[tid] = Cleanliness.ARGUABLY if arguably else Cleanliness.DIRTY
        applying = applying_to(row)
        if applying:
            dirty_applicable += 1
        for attribute, holds in verdicts.items():
            cells[attribute][Cleanliness.ARGUABLY if holds else Cleanliness.DIRTY] += 1
            if attribute in applying:
                cells_applicable[attribute] += 1

    total = source.row_count()
    verified = (
        source.applicable_count(constant_subs) if constant_subs else 0
    ) - dirty_applicable
    tuples.aggregate[Cleanliness.VERIFIED] = verified
    tuples.aggregate[Cleanliness.PROBABLY] = total - len(dirty_map) - verified
    for attribute, counts in cells.items():
        subs = [sub for sub in constant_subs if sub.rhs[0] == attribute]
        implicated = counts[Cleanliness.ARGUABLY] + counts[Cleanliness.DIRTY]
        verified = (
            source.applicable_count(subs) if subs else 0
        ) - cells_applicable[attribute]
        counts[Cleanliness.VERIFIED] = verified
        counts[Cleanliness.PROBABLY] = total - implicated - verified
    return tuples, AttributeClassification(counts=cells)


def violation_statistics(report: ViolationReport) -> Dict[str, float]:
    """Aggregate statistics of ``vio(t)``: max, min, avg, and multi-tuple group sizes."""
    vio = report.vio()
    values = list(vio.values())
    group_sizes = [len(v.tids) for v in report.multi_violations()]
    def _avg(data: List[int]) -> float:
        return sum(data) / len(data) if data else 0.0

    return {
        "tuples_with_violations": float(len(values)),
        "max_vio": float(max(values)) if values else 0.0,
        "min_vio": float(min(values)) if values else 0.0,
        "avg_vio": _avg(values),
        "total_violations": float(report.total_violations()),
        "single_violations": float(len(report.single_violations())),
        "multi_violations": float(len(report.multi_violations())),
        "max_group_size": float(max(group_sizes)) if group_sizes else 0.0,
        "avg_group_size": _avg(group_sizes),
    }
