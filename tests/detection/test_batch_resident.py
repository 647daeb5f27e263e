"""Backend-resident batch detection: zero working-store reads and the
pushed-down ``detect_for_tuples``.

The batch ``ErrorDetector``'s SQL path must behave like the paper's
pushdown end to end: schema and row count come from catalog ops, the
``Q_C``/``Q_V``/members queries run inside the backend, and the report is
assembled from backend rows alone — enforced here by the
:class:`~tests.doubles.ForbiddenReadBackend` double over SQLite, under
both plan families.  ``detect_for_tuples`` ships the tuple restriction
down as delta plans and must reproduce the old filter-after-detect
semantics exactly, including under an enforced 999-variable cap.
"""

import sqlite3

import pytest

from repro.backends import SqliteBackend
from repro.core.cfd import CFD
from repro.core.pattern import PatternTuple
from repro.datasets import generate_customers, inject_noise, paper_cfds
from repro.detection.detector import ErrorDetector
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema
from tests.doubles import ForbiddenReadBackend
from tests.tableaux import NULL_CELL_CFD, null_cell_relation


def _violation_keys(report):
    """Full violation identity, including pattern index and LHS values."""
    return sorted(
        (
            violation.cfd_id,
            violation.kind,
            violation.tids,
            violation.rhs_attribute,
            violation.pattern_index,
            violation.lhs_values,
        )
        for violation in report.violations
    )


def _dirty_customers(size=120, seed=131):
    clean = generate_customers(size, seed=seed)
    return inject_noise(
        clean, rate=0.08, seed=seed + 1, attributes=["CNT", "CITY", "STR", "CC"]
    ).dirty


def _backend_for(relation):
    """A loaded SQLite backend plus a private native-oracle database."""
    database = Database()
    database.add_relation(relation.copy())
    backend = SqliteBackend()
    backend.add_relation(relation.copy())
    return backend, database


def _filtered_oracle(database, relation_name, cfds, tids):
    """The old semantics: a full native detection filtered to ``tids``."""
    report = ErrorDetector(database, use_sql=False).detect(relation_name, cfds)
    wanted = set(tids)
    return sorted(
        key
        for key in _violation_keys(report)
        if wanted & set(key[2])
    )


#: both detection plan families: the tableau-joined legacy Q_C/Q_V and the
#: per-pattern window statements must keep every pushdown contract
PLANS = ["legacy", "window"]


@pytest.mark.parametrize("detect_plan", PLANS)
class TestZeroWorkingStoreReads:
    """detect() and detect_for_tuples() on the SQL path never ship rows back."""

    def test_detect_zero_reads(self, detect_plan):
        relation = _dirty_customers()
        backend, database = _backend_for(relation)
        detector = ErrorDetector(
            ForbiddenReadBackend(backend), detect_plan=detect_plan
        )
        report = detector.detect("customer", paper_cfds())
        assert report.total_violations() > 0
        assert report.tuple_count == len(relation)
        oracle = ErrorDetector(database, use_sql=False).detect(
            "customer", paper_cfds()
        )
        assert _violation_keys(report) == _violation_keys(oracle)
        backend.close()

    def test_detect_for_tuples_zero_reads(self, detect_plan):
        relation = _dirty_customers()
        backend, database = _backend_for(relation)
        detector = ErrorDetector(
            ForbiddenReadBackend(backend), detect_plan=detect_plan
        )
        full = ErrorDetector(database, use_sql=False).detect("customer", paper_cfds())
        wanted = sorted(full.dirty_tids())[:5] + [0, 1]
        report = detector.detect_for_tuples("customer", paper_cfds(), wanted)
        assert report.tuple_count == len(relation)
        assert _violation_keys(report) == _filtered_oracle(
            database, "customer", paper_cfds(), wanted
        )
        assert report.total_violations() > 0
        backend.close()

    def test_repeated_detect_zero_reads(self, detect_plan):
        # the per-relation generator and its plan cache persist across
        # calls; the second detect must stay backend-resident too
        relation = _dirty_customers(60, seed=137)
        backend, database = _backend_for(relation)
        detector = ErrorDetector(
            ForbiddenReadBackend(backend), detect_plan=detect_plan
        )
        first = detector.detect("customer", paper_cfds())
        second = detector.detect("customer", paper_cfds())
        assert _violation_keys(first) == _violation_keys(second)
        backend.close()


class TestDetectForTuplesPushdown:
    """Pushdown parity with the old filter-after-full-detect semantics."""

    @pytest.mark.parametrize("detect_plan", PLANS)
    def test_matches_filter_after_detect_on_customers(self, detect_plan):
        relation = _dirty_customers()
        backend, database = _backend_for(relation)
        detector = ErrorDetector(backend, detect_plan=detect_plan)
        full = ErrorDetector(database, use_sql=False).detect("customer", paper_cfds())
        dirty = sorted(full.dirty_tids())
        for wanted in ([], dirty[:1], dirty[:4], [0, 1, 2], list(relation.tids())):
            report = detector.detect_for_tuples("customer", paper_cfds(), wanted)
            assert _violation_keys(report) == _filtered_oracle(
                database, "customer", paper_cfds(), wanted
            )
            assert report.tuple_count == len(relation)
        backend.close()

    @pytest.mark.parametrize("detect_plan", PLANS)
    def test_restriction_travels_in_the_sql(self, detect_plan):
        relation = _dirty_customers(40, seed=139)
        backend, _database = _backend_for(relation)
        detector = ErrorDetector(backend, detect_plan=detect_plan)
        detector.detect_for_tuples("customer", paper_cfds(), [0, 1])
        assert detector.last_sql
        assert any("_tid IN" in sql for sql in detector.last_sql)
        backend.close()

    @pytest.mark.parametrize("detect_plan", PLANS)
    def test_unknown_tids_produce_empty_report(self, detect_plan):
        relation = _dirty_customers(30, seed=141)
        backend, _database = _backend_for(relation)
        detector = ErrorDetector(backend, detect_plan=detect_plan)
        report = detector.detect_for_tuples("customer", paper_cfds(), [10_000, 10_001])
        assert report.total_violations() == 0
        assert report.tuple_count == len(relation)
        backend.close()

    @pytest.mark.parametrize("detect_plan", PLANS)
    def test_null_rhs_tuple_does_not_drag_its_group_in(self, detect_plan):
        # tid 6 shares LHS values with the violating-adjacent (z, 2) group
        # but carries a NULL RHS, so it is not a *member*: the old filter
        # semantics exclude any group it does not belong to
        relation = null_cell_relation()
        backend, database = _backend_for(relation)
        detector = ErrorDetector(backend, detect_plan=detect_plan)
        for wanted in ([6], [2], [0], [8], [0, 6]):
            report = detector.detect_for_tuples("r", [NULL_CELL_CFD], wanted)
            assert _violation_keys(report) == _filtered_oracle(
                database, "r", [NULL_CELL_CFD], wanted
            )
        backend.close()

    @pytest.mark.parametrize("detect_plan", PLANS)
    def test_overlapping_patterns_keep_lowest_pattern_index(self, detect_plan):
        schema = RelationSchema.of("r", ["A", "B", "C"])
        relation = Relation.from_rows(
            schema,
            [
                {"A": "x", "B": "1", "C": "c1"},
                {"A": "x", "B": "1", "C": "c2"},  # violates patterns 0 and 1
                {"A": "y", "B": "1", "C": "c1"},
                {"A": "y", "B": "1", "C": "c3"},  # violates pattern 1 only
            ],
        )
        cfd = CFD(
            relation="r",
            lhs=("A", "B"),
            rhs=("C",),
            patterns=(
                PatternTuple.of({"A": "x", "B": "_", "C": "_"}),
                PatternTuple.of({"A": "_", "B": "_", "C": "_"}),
            ),
            name="phi_overlap",
        )
        backend, database = _backend_for(relation)
        detector = ErrorDetector(backend, detect_plan=detect_plan)
        report = detector.detect_for_tuples("r", [cfd], [0, 2])
        assert _violation_keys(report) == _filtered_oracle(
            database, "r", [cfd], [0, 2]
        )
        by_group = {v.lhs_values: v.pattern_index for v in report.violations}
        assert by_group == {("x", "1"): 0, ("y", "1"): 1}
        backend.close()

    WIDE_ATTRS = tuple(f"A{index}" for index in range(1, 7))

    def test_wide_lhs_chunking_under_999_variable_cap(self):
        # 300 wanted tuples over a 6-attribute LHS: the tid lists, group
        # restrictions and covering-members plans must all chunk by the
        # enforced parameter budget instead of blowing the variable cap
        schema = RelationSchema.of("w", list(self.WIDE_ATTRS) + ["C"])
        rows = []
        for index in range(300):
            row = {attr: f"v{index}_{attr}" for attr in self.WIDE_ATTRS}
            rows.append(dict(row, C="x"))
            rows.append(dict(row, C=f"y{index % 3}"))
        relation = Relation.from_rows(schema, rows)
        cfd = CFD(
            relation="w",
            lhs=self.WIDE_ATTRS,
            rhs=("C",),
            patterns=(
                PatternTuple.of({attr: "_" for attr in self.WIDE_ATTRS + ("C",)}),
            ),
            name="phi_wide",
        )
        database = Database()
        database.add_relation(relation.copy())
        backend = SqliteBackend(max_parameters=999)
        if hasattr(backend._conn, "setlimit"):
            backend._conn.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 999)
        backend.add_relation(relation.copy())
        seen = []
        original = backend.execute

        def counting_execute(sql, parameters=None):
            seen.append(len(tuple(parameters or ())))
            return original(sql, parameters)

        backend.execute = counting_execute
        wanted = list(range(0, 600, 2))  # one member of every group
        report = ErrorDetector(backend).detect_for_tuples("w", [cfd], wanted)
        assert seen and max(seen) <= 999
        assert report.total_violations() == 300
        assert _violation_keys(report) == _filtered_oracle(
            database, "w", [cfd], wanted
        )
        backend.close()


class TestPreparedPlanCache:
    """The per-detector plan cache and its stale-plan invalidation."""

    @pytest.mark.parametrize("detect_plan", PLANS)
    def test_repeated_detect_hits_the_cache(self, detect_plan):
        relation = _dirty_customers(60, seed=149)
        backend, _database = _backend_for(relation)
        detector = ErrorDetector(backend, detect_plan=detect_plan)
        first = detector.detect("customer", paper_cfds())
        generator = detector._generators["customer"]
        misses_after_first = generator.plan_cache_misses
        second = detector.detect("customer", paper_cfds())
        assert _violation_keys(first) == _violation_keys(second)
        assert generator.plan_cache_hits > 0
        # the second pass re-rendered nothing (chunk shapes repeat exactly)
        assert generator.plan_cache_misses == misses_after_first
        backend.close()

    @pytest.mark.parametrize("detect_plan", PLANS)
    def test_reused_tableau_name_does_not_serve_stale_plans(self, detect_plan):
        # two different CFDs under the same registration slot get the same
        # positional tableau name; the first has no constant-RHS pattern
        # (its Q_C is a cached None), the second does — a stale cache hit
        # would silently drop its single-tuple violations
        schema = RelationSchema.of("r", ["A", "C"])
        relation = Relation.from_rows(
            schema, [{"A": "x", "C": "zz"}, {"A": "x", "C": "c1"}]
        )
        wildcard_only = CFD(
            relation="r",
            lhs=("A",),
            rhs=("C",),
            patterns=(PatternTuple.of({"A": "_", "C": "_"}),),
            name="phi_same_name",
        )
        constant_rhs = CFD(
            relation="r",
            lhs=("A",),
            rhs=("C",),
            patterns=(PatternTuple.of({"A": "x", "C": "c1"}),),
            name="phi_same_name",
        )
        backend, _database = _backend_for(relation)
        detector = ErrorDetector(backend, detect_plan=detect_plan)
        detector.detect("r", [wildcard_only])
        report = detector.detect("r", [constant_rhs])
        assert [v.kind for v in report.violations] == ["single"]
        assert report.violations[0].tids == (0,)
        backend.close()

    def test_claim_and_invalidate_sweep_tableau_scoped_plans(self):
        from repro.detection.sqlgen import DetectionSqlGenerator

        schema = RelationSchema.of("r", ["A", "C"])
        cfd = CFD(
            relation="r",
            lhs=("A",),
            rhs=("C",),
            patterns=(PatternTuple.of({"A": "x", "C": "c1"}),),
            name="phi_cache",
        )
        other = CFD(
            relation="r",
            lhs=("A",),
            rhs=("C",),
            patterns=(PatternTuple.of({"A": "_", "C": "_"}),),
            name="phi_cache",
        )
        generator = DetectionSqlGenerator(schema)
        generator.claim_tableau("__semandaq_tableau_0_C", cfd)
        first = generator.single_tuple_query(cfd, "__semandaq_tableau_0_C")
        assert first is not None
        assert generator.plan_cache_size() == 1
        # same CFD re-claims: plans survive and hit
        generator.claim_tableau("__semandaq_tableau_0_C", cfd)
        assert generator.single_tuple_query(cfd, "__semandaq_tableau_0_C") is first
        assert generator.plan_cache_hits == 1
        # a different CFD (same name!) takes the tableau: plans swept
        generator.claim_tableau("__semandaq_tableau_0_C", other)
        assert generator.plan_cache_size() == 0
        assert generator.single_tuple_query(other, "__semandaq_tableau_0_C") is None
        # explicit invalidation clears the cached None as well
        generator.invalidate_plans("__semandaq_tableau_0_C")
        assert generator.plan_cache_size() == 0
