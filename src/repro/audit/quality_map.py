"""The data quality map: colour-bucketed per-tuple dirtiness.

The paper's Fig. 3 shows a tuple-level data quality map: "the darker the
color of a tuple is, the greater ``vio(t)`` is, and thus the more dirty the
tuple is".  This module turns the per-tuple violation counts of a
:class:`~repro.detection.violations.ViolationReport` into discrete buckets
(shades) using either linear or quantile boundaries, at the tuple level and
at the attribute (cell) level.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..detection.violations import ViolationReport
from ..engine.relation import Relation
from ..errors import SemandaqError

#: Default shade names from clean to dirtiest (5 buckets).
DEFAULT_SHADES = ("clean", "light", "medium", "dark", "darkest")


@dataclass
class QualityMap:
    """Bucketed dirtiness per tuple (and per cell).

    ``vio`` may cover only the dirty tids (the resident audit never
    enumerates clean tuples); ``tuple_count`` records the full tid
    universe so the histogram's clean bucket stays exact either way.
    """

    buckets: Dict[int, int] = field(default_factory=dict)
    boundaries: Tuple[float, ...] = ()
    shades: Tuple[str, ...] = DEFAULT_SHADES
    vio: Dict[int, int] = field(default_factory=dict)
    cell_buckets: Dict[Tuple[int, str], int] = field(default_factory=dict)
    tuple_count: int = 0

    def bucket_of(self, tid: int) -> int:
        """Bucket index of tuple ``tid`` (0 = clean)."""
        return self.buckets.get(tid, 0)

    def shade_of(self, tid: int) -> str:
        """Shade name of tuple ``tid``."""
        return self.shades[self.bucket_of(tid)]

    def histogram(self) -> Dict[str, int]:
        """Number of tuples per shade."""
        result = {shade: 0 for shade in self.shades}
        for tid in self.vio:
            result[self.shade_of(tid)] += 1
        # Tuples outside ``vio`` are clean by construction.
        result[self.shades[0]] += max(0, self.tuple_count - len(self.vio))
        return result

    def dirtiest(self, top: int = 10) -> List[Tuple[int, int]]:
        """The ``top`` tuples with the highest ``vio(t)``."""
        ranked = sorted(self.vio.items(), key=lambda pair: (-pair[1], pair[0]))
        return [pair for pair in ranked if pair[1] > 0][:top]

    def cell_shade(self, tid: int, attribute: str) -> str:
        """Shade of one cell (clean if the cell is not implicated)."""
        return self.shades[self.cell_buckets.get((tid, attribute), 0)]


def linear_boundaries(max_value: int, levels: int) -> Tuple[float, ...]:
    """Evenly spaced bucket boundaries over ``(0, max_value]``."""
    if levels < 2:
        raise SemandaqError("a quality map needs at least two levels")
    if max_value <= 0:
        return tuple(float(i) for i in range(1, levels))
    step = max_value / (levels - 1)
    return tuple(step * i for i in range(1, levels))


def quantile_boundaries(values: Sequence[int], levels: int) -> Tuple[float, ...]:
    """Bucket boundaries at the quantiles of the non-zero violation counts."""
    if levels < 2:
        raise SemandaqError("a quality map needs at least two levels")
    positive = sorted(value for value in values if value > 0)
    if not positive:
        return linear_boundaries(0, levels)
    boundaries = []
    for i in range(1, levels):
        index = min(int(len(positive) * i / (levels - 1)), len(positive) - 1)
        boundaries.append(float(positive[index]))
    # Boundaries must be non-decreasing; make them strictly usable.
    for i in range(1, len(boundaries)):
        boundaries[i] = max(boundaries[i], boundaries[i - 1])
    return tuple(boundaries)


def build_quality_map(
    relation: Optional[Relation],
    report: ViolationReport,
    levels: int = len(DEFAULT_SHADES),
    strategy: str = "linear",
    shades: Tuple[str, ...] = DEFAULT_SHADES,
    tuple_count: Optional[int] = None,
) -> QualityMap:
    """Build the tuple- and cell-level quality map from a violation report.

    ``strategy`` is ``"linear"`` (evenly spaced in ``vio``) or ``"quantile"``
    (equal-population buckets among dirty tuples).  ``relation`` may be
    ``None`` when the data lives in a backend — the tid universe then
    comes from ``tuple_count`` (a catalog row count) and ``vio`` is seeded
    from the report's dirty tids alone.  The boundaries are unaffected:
    linear ones depend only on ``max(vio)`` and quantile ones ignore
    zero-violation tuples.
    """
    if shades == DEFAULT_SHADES and levels != len(DEFAULT_SHADES):
        # Derive generic shade names when the caller only customised the level
        # count (e.g. the auditor's ``quality_levels`` setting).
        shades = ("clean",) + tuple(f"level{i}" for i in range(1, levels))
    if len(shades) != levels:
        raise SemandaqError("need exactly one shade name per level")
    if relation is None:
        if tuple_count is None:
            raise SemandaqError(
                "a quality map without a relation needs a tuple_count"
            )
        vio = {}
    else:
        vio = {tid: 0 for tid in relation.tids()}
        tuple_count = len(relation)
    vio.update(report.vio())
    values = list(vio.values())
    max_value = max(values) if values else 0
    if strategy == "linear":
        boundaries = linear_boundaries(max_value, levels)
    elif strategy == "quantile":
        boundaries = quantile_boundaries(values, levels)
    else:
        raise SemandaqError(f"unknown quality-map strategy {strategy!r}")

    def bucket(value: int) -> int:
        if value <= 0:
            return 0
        for index, boundary in enumerate(boundaries, start=1):
            if value <= boundary:
                return index
        return levels - 1

    buckets = {tid: bucket(value) for tid, value in vio.items()}

    # Cell-level: count the violations implicating each (tid, RHS attribute).
    cell_counts: Dict[Tuple[int, str], int] = defaultdict(int)
    for violation in report.violations:
        weight = 1 if violation.is_single else len(violation.tids) - 1
        for tid in violation.tids:
            cell_counts[(tid, violation.rhs_attribute)] += weight
    cell_buckets = {cell: bucket(count) for cell, count in cell_counts.items()}

    return QualityMap(
        buckets=buckets,
        boundaries=boundaries,
        shades=tuple(shades),
        vio=vio,
        cell_buckets=cell_buckets,
        tuple_count=tuple_count,
    )
