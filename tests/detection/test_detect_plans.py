"""The detection plans: generated shapes and parity with the native oracle.

Each CFD compiles to one sargable ``Q_C`` statement per constant-RHS
pattern row and one one-pass ``Q_V`` statement per wildcard-RHS pattern
row.  These tests pin (a) the generated SQL shapes and (b) report identity
with the native oracle, including the restricted ``detect_for_tuples``
path and the incremental detector's mirrored updates.
"""

import pytest

from repro.backends import SqliteBackend
from repro.core.cfd import CFD
from repro.core.pattern import PatternTuple
from repro.detection.detector import ErrorDetector
from repro.detection.incremental import IncrementalDetector
from repro.detection.sqlgen import DetectionSqlGenerator
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema

SCHEMA = RelationSchema.of("r", ["A", "B", "C", "D"])


def _relation():
    return Relation.from_rows(
        SCHEMA,
        [
            {"A": "x", "B": "1", "C": "c1", "D": "d1"},
            {"A": "x", "B": "1", "C": "c2", "D": "d1"},  # group (x,1) disagrees on C
            {"A": "y", "B": "2", "C": "c1", "D": "d9"},  # wrong D under pattern 1
            {"A": "y", "B": "2", "C": "c1", "D": "d2"},
            {"A": "z", "B": None, "C": "c3", "D": "d3"},  # NULL LHS: in no group
            {"A": "z", "B": "3", "C": None, "D": "d3"},  # NULL RHS
        ],
    )


def _cfds():
    # overlapping patterns, a constant-LHS + constant-RHS pattern, and a
    # wildcard-only pattern — exercises both Q_C and Q_V
    return [
        CFD(
            relation="r",
            lhs=("A", "B"),
            rhs=("C",),
            patterns=(
                PatternTuple.of({"A": "_", "B": "_", "C": "_"}),
                PatternTuple.of({"A": "x", "B": "_", "C": "_"}),
            ),
            name="phi_var",
        ),
        CFD(
            relation="r",
            lhs=("A", "B"),
            rhs=("D",),
            patterns=(
                PatternTuple.of({"A": "y", "B": "2", "D": "d2"}),
                PatternTuple.of({"A": "_", "B": "_", "D": "_"}),
            ),
            name="phi_const",
        ),
    ]


def _keys(report):
    return sorted(
        (v.cfd_id, v.kind, v.tids, v.rhs_attribute, v.pattern_index, v.lhs_values)
        for v in report.violations
    )


class TestGeneratedShapes:
    def test_window_splits_constant_patterns(self):
        gen = DetectionSqlGenerator(SCHEMA)
        cfd = _cfds()[1]  # one constant-RHS pattern, one wildcard-only
        queries = gen.plan_single_queries(cfd)
        assert [q.kind for q in queries] == ["q_c_sargable"]
        assert queries[0].pattern_index == 0
        # the constants are bound, the data relation is the only one read
        assert "FROM r t\n" in queries[0].sql and "JOIN" not in queries[0].sql
        assert "t.A = ?" in queries[0].sql and "t.B = ?" in queries[0].sql
        assert queries[0].parameters == ("y", "2", "d2")

    def test_wildcard_only_patterns_collapse_to_one_statement(self):
        gen = DetectionSqlGenerator(SCHEMA)
        cfd = CFD(
            relation="r",
            lhs=("A",),
            rhs=("C",),
            patterns=(
                PatternTuple.of({"A": "_", "C": "_"}),
                PatternTuple.of({"A": "_", "C": "_"}),
            ),
            name="phi_dup",
        )
        queries = gen.plan_multi_queries(cfd)
        # identical renderings dedupe to the lowest pattern index
        assert len(queries) == 1
        assert queries[0].pattern_index == 0
        assert queries[0].kind == "q_window"

    def test_window_multi_is_one_pass(self):
        gen = DetectionSqlGenerator(SCHEMA)
        cfd = _cfds()[0]
        queries = gen.plan_multi_queries(cfd)
        assert {q.kind for q in queries} == {"q_window"}
        # member rows come back directly: tid + lhs_* carry columns
        for query in queries:
            assert "t._tid AS tid" in query.sql
            assert "lhs_A" in query.sql and "lhs_B" in query.sql
            assert "HAVING COUNT(DISTINCT" in query.sql


class TestCrossVariantParity:
    """Batch SQL, restricted SQL and incremental detection agree with native detection."""

    def test_batch_report_matches_native(self):
        relation = _relation()
        cfds = _cfds()
        backend = SqliteBackend()
        backend.add_relation(relation.copy())
        report = _keys(ErrorDetector(backend).detect("r", cfds))
        backend.close()
        database = Database()
        database.add_relation(relation.copy())
        native = _keys(ErrorDetector(database, use_sql=False).detect("r", cfds))
        assert report == native
        assert report  # the workload does violate

    @pytest.mark.usefixtures("plan_family")
    def test_detect_for_tuples_matches_filtered_full_detect(self):
        backend = SqliteBackend()
        backend.add_relation(_relation())
        cfds = _cfds()
        detector = ErrorDetector(backend)
        full = detector.detect("r", cfds)
        for tid in range(6):
            restricted = detector.detect_for_tuples("r", cfds, [tid])
            expected = sorted(
                key
                for key in _keys(full)
                if tid in key[2]
            )
            assert _keys(restricted) == expected, tid
        backend.close()

    @pytest.mark.usefixtures("plan_family")
    def test_mirrored_updates_agree_with_batch(self):
        database = Database()
        database.add_relation(_relation())
        cfds = _cfds()
        mirror = SqliteBackend()
        mirror.add_relation(database.relation("r").copy())
        detector = IncrementalDetector(database, "r", cfds, mirror=mirror)
        detector.update(1, {"C": "c1"})  # heal group (x, 1)
        detector.update(3, {"D": "d9"})  # new single + D-group split
        incremental = _keys(detector.report())
        batch = ErrorDetector(mirror).detect("r", cfds)
        assert incremental == _keys(batch)
        mirror.close()
