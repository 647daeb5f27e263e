"""Tests for the data quality map (Fig. 3)."""

import pytest

from repro.audit.quality_map import (
    DEFAULT_SHADES,
    build_quality_map,
    linear_boundaries,
    quantile_boundaries,
)
from repro.detection.detector import ErrorDetector
from repro.errors import SemandaqError


@pytest.fixture
def report(customer_database, customer_cfds):
    return ErrorDetector(customer_database).detect("customer", customer_cfds)


class TestBoundaries:
    def test_linear_boundaries_even_spacing(self):
        assert linear_boundaries(8, 5) == (2.0, 4.0, 6.0, 8.0)

    def test_linear_boundaries_zero_max(self):
        assert linear_boundaries(0, 3) == (1.0, 2.0)

    def test_linear_requires_two_levels(self):
        with pytest.raises(SemandaqError):
            linear_boundaries(5, 1)

    def test_quantile_boundaries_nondecreasing(self):
        boundaries = quantile_boundaries([1, 1, 2, 5, 9], 4)
        assert all(b1 <= b2 for b1, b2 in zip(boundaries, boundaries[1:]))

    def test_quantile_with_no_positive_values(self):
        assert quantile_boundaries([0, 0], 3) == (1.0, 2.0)

    def test_quantile_requires_two_levels(self):
        with pytest.raises(SemandaqError):
            quantile_boundaries([1, 2], 1)


class TestQualityMap:
    def test_clean_tuples_get_bucket_zero(self, customer_relation, report):
        quality_map = build_quality_map(customer_relation, report)
        assert quality_map.bucket_of(2) == 0
        assert quality_map.shade_of(2) == "clean"

    def test_dirtier_tuples_get_darker_buckets(self, customer_relation, report):
        quality_map = build_quality_map(customer_relation, report)
        assert quality_map.bucket_of(4) >= quality_map.bucket_of(5) > 0

    def test_histogram_covers_all_tuples(self, customer_relation, report):
        quality_map = build_quality_map(customer_relation, report)
        assert sum(quality_map.histogram().values()) == len(customer_relation)

    def test_dirtiest_listing(self, customer_relation, report):
        quality_map = build_quality_map(customer_relation, report)
        dirtiest = quality_map.dirtiest(top=3)
        assert dirtiest[0][1] == max(quality_map.vio.values())
        assert all(count > 0 for _tid, count in dirtiest)

    def test_cell_shades(self, customer_relation, report):
        quality_map = build_quality_map(customer_relation, report)
        assert quality_map.cell_shade(0, "STR") != "clean"
        assert quality_map.cell_shade(0, "NAME") == "clean"

    def test_quantile_strategy(self, customer_relation, report):
        quality_map = build_quality_map(customer_relation, report, strategy="quantile")
        assert sum(quality_map.histogram().values()) == len(customer_relation)

    def test_unknown_strategy_rejected(self, customer_relation, report):
        with pytest.raises(SemandaqError):
            build_quality_map(customer_relation, report, strategy="sorted")

    def test_shade_count_must_match_levels(self, customer_relation, report):
        with pytest.raises(SemandaqError):
            build_quality_map(customer_relation, report, levels=3, shades=("clean", "dark"))

    def test_default_shades_adapt_to_level_count(self, customer_relation, report):
        quality_map = build_quality_map(customer_relation, report, levels=3)
        assert len(quality_map.shades) == 3
        assert quality_map.shades[0] == "clean"

    def test_backend_resident_map_needs_a_tuple_count(self, report):
        with pytest.raises(SemandaqError, match="tuple_count"):
            build_quality_map(None, report)

    def test_backend_resident_map_matches_the_relation_walk(
        self, customer_relation, report
    ):
        # only dirty tids are seeded without a relation; clean ones are
        # implicit, so every per-tuple answer must still agree
        walked = build_quality_map(customer_relation, report)
        resident = build_quality_map(None, report, tuple_count=len(customer_relation))
        assert resident.boundaries == walked.boundaries
        assert resident.histogram() == walked.histogram()
        for tid in customer_relation.tids():
            assert resident.shade_of(tid) == walked.shade_of(tid)
        assert resident.dirtiest() == walked.dirtiest()

    def test_custom_levels(self, customer_relation, report):
        quality_map = build_quality_map(
            customer_relation, report, levels=3, shades=("clean", "grey", "black")
        )
        assert max(quality_map.buckets.values()) <= 2
