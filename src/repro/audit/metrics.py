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
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

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


def _positions_by_cell(report: ViolationReport) -> Dict[Tuple[int, str], List[int]]:
    """Per implicated cell ``(tid, RHS attribute)``, the positions of its violations."""
    positions: Dict[Tuple[int, str], List[int]] = defaultdict(list)
    for position, violation in enumerate(report.violations):
        for tid in violation.tids:
            positions[(tid, violation.rhs_attribute)].append(position)
    return positions


def _arguably_clean(
    tally: MajorityTally, tid: int, positions: Sequence[int], majority: float
) -> bool:
    """Whether every violation at ``positions`` is multi-tuple and its bulk agrees with ``tid``."""
    violations = tally.report.violations
    return all(violations[position].is_multi for position in positions) and all(
        tally.agrees(tid, position, majority) for position in positions
    )


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
        if _arguably_clean(tally, tid, involved, majority):
            classification.categories[tid] = Cleanliness.ARGUABLY
        else:
            classification.categories[tid] = Cleanliness.DIRTY
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
    implicated = _positions_by_cell(report)
    per_attribute_constant: Dict[str, List[PatternMatcher]] = defaultdict(list)
    for _parent, sub in _applicable_constant_rhs(cfds):
        per_attribute_constant[sub.rhs[0]].append(sub.matchers[0])

    counts: Dict[str, Dict[Cleanliness, int]] = {
        attribute: {category: 0 for category in Cleanliness}
        for attribute in relation.attribute_names
    }
    for tid, row in relation.stored_rows():
        for attribute in relation.attribute_names:
            positions = implicated.get((tid, attribute))
            if positions:
                if _arguably_clean(tally, tid, positions, majority):
                    counts[attribute][Cleanliness.ARGUABLY] += 1
                else:
                    counts[attribute][Cleanliness.DIRTY] += 1
                continue
            verified = any(
                matcher.applies_to(row)
                for matcher in per_attribute_constant.get(attribute, [])
            )
            category = Cleanliness.VERIFIED if verified else Cleanliness.PROBABLY
            counts[attribute][category] += 1
    return AttributeClassification(counts=counts)


def classify_tuples_source(
    source: "TupleSource",
    partial: Relation,
    cfds: Sequence[CFD],
    report: ViolationReport,
    majority: float = 0.5,
    tally: Optional[MajorityTally] = None,
) -> TupleClassification:
    """Resident counterpart of :func:`classify_tuples` — zero full scans.

    ``partial`` holds exactly the dirty tuples (every member of every
    violation is dirty, so the majority checks see the same rows the
    native path would).  Clean tuples are classified in bulk: the
    verified-clean count is one pushed-down applicability aggregate minus
    the dirty tuples that satisfy a constant-RHS sub — computed natively
    over the fetched rows — and the rest of the clean tuples are probably
    clean.  The result's ``counts``/``percentages`` match the native
    classification exactly.  ``tally`` may be shared with
    :func:`classify_cells_source` over the same partial relation and report.
    """
    tally = tally if tally is not None else MajorityTally(partial, report)
    dirty_map = _positions_by_tid(report)
    constant_subs = [sub for _parent, sub in _applicable_constant_rhs(cfds)]
    constant_matchers = [sub.matchers[0] for sub in constant_subs]
    classification = TupleClassification()
    dirty_applicable = 0
    for tid, row in partial.stored_rows():
        involved = dirty_map.get(tid)
        if any(matcher.applies_to(row) for matcher in constant_matchers):
            dirty_applicable += 1
        if involved and _arguably_clean(tally, tid, involved, majority):
            classification.categories[tid] = Cleanliness.ARGUABLY
        else:
            classification.categories[tid] = Cleanliness.DIRTY
    applicable = source.applicable_count(constant_subs) if constant_subs else 0
    verified = applicable - dirty_applicable
    clean = source.row_count() - len(dirty_map)
    classification.aggregate[Cleanliness.VERIFIED] = verified
    classification.aggregate[Cleanliness.PROBABLY] = clean - verified
    return classification


def classify_cells_source(
    source: "TupleSource",
    partial: Relation,
    cfds: Sequence[CFD],
    report: ViolationReport,
    majority: float = 0.5,
    tally: Optional[MajorityTally] = None,
) -> AttributeClassification:
    """Resident counterpart of :func:`classify_cells`.

    Implicated cells (all on dirty, fetched tuples) classify natively;
    non-implicated cells classify in bulk per attribute from one
    applicability aggregate over that attribute's constant-RHS subs.
    """
    tally = tally if tally is not None else MajorityTally(partial, report)
    implicated = _positions_by_cell(report)
    per_attribute_constant: Dict[str, List[CFD]] = defaultdict(list)
    for _parent, sub in _applicable_constant_rhs(cfds):
        per_attribute_constant[sub.rhs[0]].append(sub)

    implicated_by_attribute: Dict[str, List[int]] = defaultdict(list)
    for tid, attribute in implicated:
        implicated_by_attribute[attribute].append(tid)

    total = source.row_count()
    attributes = source.attribute_names()
    counts: Dict[str, Dict[Cleanliness, int]] = {
        attribute: {category: 0 for category in Cleanliness}
        for attribute in attributes
    }
    for attribute in attributes:
        subs = per_attribute_constant.get(attribute, [])
        matchers = [sub.matchers[0] for sub in subs]
        implicated_tids = sorted(implicated_by_attribute.get(attribute, []))
        dirty_applicable = 0
        for tid in implicated_tids:
            row = partial.get(tid)
            if any(matcher.applies_to(row) for matcher in matchers):
                dirty_applicable += 1
            if _arguably_clean(tally, tid, implicated[(tid, attribute)], majority):
                counts[attribute][Cleanliness.ARGUABLY] += 1
            else:
                counts[attribute][Cleanliness.DIRTY] += 1
        applicable = source.applicable_count(subs) if subs else 0
        verified = applicable - dirty_applicable
        counts[attribute][Cleanliness.VERIFIED] = verified
        counts[attribute][Cleanliness.PROBABLY] = (
            total - len(implicated_tids) - verified
        )
    return AttributeClassification(counts=counts)


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
