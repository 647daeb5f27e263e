"""The data auditor: summarised data-quality reports.

Combines the tuple/cell classifications, the violation statistics and the
quality map into one :class:`DataQualityReport` — the programmatic
counterpart of the paper's "Data Quality Report" screen (Fig. 4): a bar
chart of verified / probably / arguably clean values per attribute, a pie
chart of violations, and distribution statistics at a chosen level of
detail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..core.cfd import CFD
from ..detection.violations import ViolationReport
from ..engine.relation import Relation
from .metrics import (
    AttributeClassification,
    Cleanliness,
    MajorityTally,
    TupleClassification,
    classify_cells,
    classify_source,
    classify_tuples,
    violation_statistics,
)
from .quality_map import DEFAULT_SHADES, QualityMap, build_quality_map

if TYPE_CHECKING:  # pragma: no cover
    from ..sources.base import TupleSource


@dataclass
class DataQualityReport:
    """The auditor's full summary for one relation."""

    relation: str
    tuple_count: int
    tuple_classification: TupleClassification
    attribute_classification: AttributeClassification
    statistics: Dict[str, float]
    per_cfd: Dict[str, Dict[str, int]]
    quality_map: QualityMap

    # -- headline numbers -----------------------------------------------------------

    def dirty_tuple_count(self) -> int:
        """Tuples classified as dirty."""
        return self.tuple_classification.counts()[Cleanliness.DIRTY]

    def dirty_percentage(self) -> float:
        """Percentage of dirty tuples."""
        if self.tuple_count == 0:
            return 0.0
        return 100.0 * self.dirty_tuple_count() / self.tuple_count

    def pie_chart(self) -> Dict[str, int]:
        """The violation pie chart of Fig. 4: tuples per cleanliness category."""
        return {
            category.value: count
            for category, count in self.tuple_classification.counts().items()
        }

    def bar_chart(self) -> Dict[str, Dict[str, float]]:
        """The per-attribute bar chart of Fig. 4 (percentages per category)."""
        return {
            attribute: {category.value: pct for category, pct in per_category.items()}
            for attribute, per_category in self.attribute_classification.percentages().items()
        }

    def worst_attributes(self, top: int = 3) -> List[Tuple[str, int]]:
        """Attributes with the most dirty cells."""
        return self.attribute_classification.dirtiest_attributes(top)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation of the whole report."""
        return {
            "relation": self.relation,
            "tuple_count": self.tuple_count,
            "pie_chart": self.pie_chart(),
            "bar_chart": self.bar_chart(),
            "statistics": dict(self.statistics),
            "per_cfd": {key: dict(value) for key, value in self.per_cfd.items()},
            "quality_map_histogram": self.quality_map.histogram(),
        }


class DataAuditor:
    """Builds :class:`DataQualityReport` objects from detection results."""

    def __init__(
        self,
        majority: float = 0.5,
        quality_levels: int = len(DEFAULT_SHADES),
        quality_strategy: str = "linear",
    ):
        self.majority = majority
        self.quality_levels = quality_levels
        self.quality_strategy = quality_strategy

    def audit(
        self,
        relation: Relation,
        cfds: Sequence[CFD],
        report: ViolationReport,
    ) -> DataQualityReport:
        """Summarise the inconsistencies detected by the error detector."""
        tally = MajorityTally(relation, report)
        tuple_classification = classify_tuples(
            relation, cfds, report, self.majority, tally
        )
        attribute_classification = classify_cells(
            relation, cfds, report, self.majority, tally
        )
        statistics = violation_statistics(report)
        statistics["clean_tuples"] = float(report.clean_tid_count())
        statistics["dirty_tuples"] = float(len(report.dirty_tids()))
        quality_map = build_quality_map(
            relation,
            report,
            levels=self.quality_levels,
            strategy=self.quality_strategy,
        )
        return DataQualityReport(
            relation=report.relation,
            tuple_count=len(relation),
            tuple_classification=tuple_classification,
            attribute_classification=attribute_classification,
            statistics=statistics,
            per_cfd=report.per_cfd_counts(),
            quality_map=quality_map,
        )

    def audit_source(
        self,
        source: "TupleSource",
        cfds: Sequence[CFD],
        report: ViolationReport,
    ) -> DataQualityReport:
        """Resident audit: classify from the report plus backend aggregates.

        Only the dirty tuples are materialised: the report's dirty region
        (:meth:`~repro.sources.base.TupleSource.dirty_region`, one
        ``row_fetch`` of its dirty tids, or none when ``source`` already
        holds it).  Every member of every violation is dirty, so the
        majority checks run natively over that partial relation with the
        same outcome as a full copy; the audit only reads it, in one pass
        that classifies its tuples and cells together
        (:func:`~repro.audit.metrics.classify_source`).  Clean tuples are
        counted by pushed-down applicability aggregates, and the quality
        map derives its tid universe from the catalog row count — the
        working store is never read row-by-row.
        """
        tuple_classification, attribute_classification = classify_source(
            source, source.dirty_region(report), cfds, report, self.majority
        )
        statistics = violation_statistics(report)
        statistics["clean_tuples"] = float(report.clean_tid_count())
        statistics["dirty_tuples"] = float(len(report.dirty_tids()))
        tuple_count = source.row_count()
        quality_map = build_quality_map(
            None,
            report,
            levels=self.quality_levels,
            strategy=self.quality_strategy,
            tuple_count=tuple_count,
        )
        return DataQualityReport(
            relation=report.relation,
            tuple_count=tuple_count,
            tuple_classification=tuple_classification,
            attribute_classification=attribute_classification,
            statistics=statistics,
            per_cfd=report.per_cfd_counts(),
            quality_map=quality_map,
        )
