"""Tests for the auditor's cleanliness classifications and statistics."""

import pytest

from repro.audit.metrics import (
    Cleanliness,
    MajorityTally,
    classify_cells,
    classify_tuples,
    violation_statistics,
)
from repro.core.parser import parse_cfd
from repro.detection.detector import ErrorDetector
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema


@pytest.fixture
def report(customer_database, customer_cfds):
    return ErrorDetector(customer_database).detect("customer", customer_cfds)


class TestTupleClassification:
    def test_categories_follow_paper_definitions(self, customer_relation, customer_cfds, report):
        classification = classify_tuples(customer_relation, customer_cfds, report)
        # Joe and Mary (US) violate nothing; phi4 has a constant-RHS pattern
        # [CC='01'] -> [CNT='US'] that applies to them, so they are verified.
        assert classification.of(2) is Cleanliness.VERIFIED
        assert classification.of(3) is Cleanliness.VERIFIED
        # Anna has a single-tuple violation: dirty.
        assert classification.of(4) is Cleanliness.DIRTY
        # Bob is only involved in the phi3 multi-tuple violation and the bulk
        # of that group (Mike, Rick) agrees with his CNT=UK: arguably clean.
        assert classification.of(5) is Cleanliness.ARGUABLY

    def test_mike_and_rick_are_dirty(self, customer_relation, customer_cfds, report):
        classification = classify_tuples(customer_relation, customer_cfds, report)
        # Their phi2 violation is a 2-tuple group with no majority, so neither
        # can be argued clean.
        assert classification.of(0) is Cleanliness.DIRTY
        assert classification.of(1) is Cleanliness.DIRTY

    def test_counts_and_percentages(self, customer_relation, customer_cfds, report):
        classification = classify_tuples(customer_relation, customer_cfds, report)
        counts = classification.counts()
        assert sum(counts.values()) == 6
        percentages = classification.percentages()
        assert sum(percentages.values()) == pytest.approx(100.0)

    def test_cumulative_percentages_monotone(self, customer_relation, customer_cfds, report):
        classification = classify_tuples(customer_relation, customer_cfds, report)
        cumulative = classification.cumulative_percentages()
        assert (
            cumulative[Cleanliness.VERIFIED]
            <= cumulative[Cleanliness.PROBABLY]
            <= cumulative[Cleanliness.ARGUABLY]
        )

    def test_probably_clean_without_constant_cfd(self):
        schema = RelationSchema.of("r", ["A", "B"])
        relation = Relation.from_rows(schema, [{"A": "x", "B": "y"}])
        cfd = parse_cfd("r: [A=_] -> [B=_]")
        database = Database()
        database.add_relation(relation)
        report = ErrorDetector(database).detect("r", [cfd])
        classification = classify_tuples(relation, [cfd], report)
        assert classification.of(0) is Cleanliness.PROBABLY

    def test_majority_threshold_influences_arguably(self, customer_relation, customer_cfds, report):
        strict = classify_tuples(customer_relation, customer_cfds, report, majority=0.99)
        assert strict.of(5) is Cleanliness.DIRTY


class TestMajorityChecks:
    """The arguably-clean test counts a violation's RHS values once.

    Each member of a k-member violation asks what share of the others
    agree with it; re-reading every other member made that k² value reads
    per violation.  Counted reads pin it, not timings.
    """

    def test_value_reads_are_linear_in_the_group(self, monkeypatch):
        schema = RelationSchema.of("r", ["A", "B"])
        members = 120
        rows = [{"A": "k", "B": "v" if index % 4 else "w"} for index in range(members)]
        relation = Relation.from_rows(schema, rows)
        cfd = parse_cfd("r: [A=_] -> [B=_]")
        database = Database()
        database.add_relation(relation)
        report = ErrorDetector(database).detect("r", [cfd])
        assert [len(violation.tids) for violation in report.violations] == [members]
        reads = {"value": 0}
        value = Relation.value

        def counting(self, tid, attribute):
            reads["value"] += 1
            return value(self, tid, attribute)

        monkeypatch.setattr(Relation, "value", counting)
        tally = MajorityTally(relation, report)
        tuples = classify_tuples(relation, [cfd], report, tally=tally)
        cells = classify_cells(relation, [cfd], report, tally=tally)
        monkeypatch.undo()
        assert reads["value"] <= 4 * members, reads
        # three quarters hold "v": they are arguably clean, the "w" holders dirty
        assert tuples.counts()[Cleanliness.ARGUABLY] == 90
        assert tuples.counts()[Cleanliness.DIRTY] == 30
        assert cells.counts["B"][Cleanliness.ARGUABLY] == 90
        assert cells.counts["B"][Cleanliness.DIRTY] == 30


class TestCellClassification:
    def test_dirty_cells_limited_to_rhs_attributes(self, customer_relation, customer_cfds, report):
        classification = classify_cells(customer_relation, customer_cfds, report)
        assert classification.counts["STR"][Cleanliness.DIRTY] == 2  # Mike & Rick
        assert classification.counts["NAME"][Cleanliness.DIRTY] == 0

    def test_arguably_clean_cells(self, customer_relation, customer_cfds, report):
        classification = classify_cells(customer_relation, customer_cfds, report)
        # Mike, Rick, Bob's CNT cells are involved only in the phi3 group where
        # the bulk agrees with them.
        assert classification.counts["CNT"][Cleanliness.ARGUABLY] == 3
        assert classification.counts["CNT"][Cleanliness.DIRTY] == 1  # Anna

    def test_verified_cells_from_constant_cfds(self, customer_relation, customer_cfds, report):
        classification = classify_cells(customer_relation, customer_cfds, report)
        # Joe's and Mary's CNT cells are covered by [CC='01'] -> [CNT='US'].
        assert classification.counts["CNT"][Cleanliness.VERIFIED] == 2

    def test_percentages_sum_to_100_per_attribute(self, customer_relation, customer_cfds, report):
        classification = classify_cells(customer_relation, customer_cfds, report)
        for attribute, percentages in classification.percentages().items():
            assert sum(percentages.values()) == pytest.approx(100.0)

    def test_dirtiest_attributes_ranking(self, customer_relation, customer_cfds, report):
        classification = classify_cells(customer_relation, customer_cfds, report)
        ranking = classification.dirtiest_attributes(top=2)
        assert ranking[0][0] == "STR"


class TestViolationStatistics:
    def test_statistics_fields(self, report):
        stats = violation_statistics(report)
        assert stats["single_violations"] == 1
        assert stats["multi_violations"] == 2
        assert stats["max_vio"] >= stats["avg_vio"] >= 0
        assert stats["max_group_size"] == 4
        assert stats["tuples_with_violations"] == 4

    def test_statistics_on_empty_report(self, customer_cfds):
        from repro.detection.violations import ViolationReport

        stats = violation_statistics(ViolationReport(relation="r", tuple_count=0))
        assert stats["max_vio"] == 0 and stats["avg_vio"] == 0
