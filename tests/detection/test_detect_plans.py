"""The detection plan-variant layer: selection, shapes, cache keys, parity.

Two plan families compile the paper's ``Q_C``/``Q_V`` pair: the legacy
tableau-joined form, and the window family (per-pattern sargable ``Q_C``,
one-pass ``Q_V``).  These tests pin (a) the selection, including the
``SEMANDAQ_DETECT_PLAN`` switch rejecting unknown values, (b) the
generated SQL shapes, (c) the variant-carrying prepared-plan cache keys —
flipping ``detect_plan`` mid-session must never serve a stale shape — and
(d) report identity across the families and against the native oracle,
including the restricted ``detect_for_tuples`` path and the ``sql_delta``
re-checks.
"""

import pytest

from repro import Semandaq, SemandaqConfig
from repro.backends import SqliteBackend
from repro.backends.dialect import SqliteDialect
from repro.core.cfd import CFD
from repro.core.parser import parse_cfd
from repro.core.pattern import PatternTuple
from repro.detection.detector import ErrorDetector
from repro.detection.incremental import IncrementalDetector
from repro.detection.sqlgen import (
    DETECT_PLAN_ENV,
    DETECT_PLANS,
    DetectionSqlGenerator,
    default_detect_plan,
    resolve_detect_plan,
)
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema
from repro.errors import ConfigurationError, DetectionError

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
    # wildcard-only pattern — exercises both Q_C and Q_V in every family
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


class TestResolution:
    def test_plan_families(self):
        assert DETECT_PLANS == ("auto", "legacy", "window")

    def test_legacy_and_window_resolve_to_themselves(self):
        assert resolve_detect_plan("legacy", SqliteDialect()) == "legacy"
        assert resolve_detect_plan("window", SqliteDialect()) == "window"

    def test_auto_resolves_to_window(self):
        assert resolve_detect_plan("auto", SqliteDialect()) == "window"

    @pytest.mark.parametrize("plan", ["bogus", "sargable"])
    def test_unknown_plan_rejected(self, plan):
        with pytest.raises(DetectionError, match="unknown detect_plan"):
            resolve_detect_plan(plan, SqliteDialect())

    def test_env_variable_is_the_default(self, monkeypatch):
        monkeypatch.delenv(DETECT_PLAN_ENV, raising=False)
        assert default_detect_plan() == "auto"
        monkeypatch.setenv(DETECT_PLAN_ENV, "")
        assert default_detect_plan() == "auto"
        monkeypatch.setenv(DETECT_PLAN_ENV, " Legacy ")
        assert default_detect_plan() == "legacy"

    @pytest.mark.parametrize("value", ["legcy", "sargable"])
    def test_unknown_env_value_raises(self, monkeypatch, value):
        # a typo (or a deleted family) in a CI leg meant to pin one plan
        # must fail loudly instead of silently running auto
        monkeypatch.setenv(DETECT_PLAN_ENV, value)
        with pytest.raises(DetectionError, match=DETECT_PLAN_ENV):
            default_detect_plan()
        backend = SqliteBackend()
        backend.add_relation(_relation())
        with pytest.raises(DetectionError, match=DETECT_PLAN_ENV):
            ErrorDetector(backend).detect("r", _cfds())
        backend.close()

    def test_config_validates_detect_plan(self):
        SemandaqConfig(detect_plan="window").validate()
        SemandaqConfig(detect_plan=None).validate()
        for plan in ("bogus", "sargable"):
            with pytest.raises(ConfigurationError, match="unknown detect_plan"):
                SemandaqConfig(detect_plan=plan).validate()


class TestGeneratedShapes:
    @pytest.fixture
    def generator(self):
        def make(plan):
            return DetectionSqlGenerator(
                SCHEMA, dialect=SqliteDialect(), detect_plan=plan
            )

        return make

    def test_window_splits_constant_patterns(self, generator):
        gen = generator("window")
        cfd = _cfds()[1]  # one constant-RHS pattern, one wildcard-only
        queries = gen.plan_single_queries(cfd, "tab")
        assert [q.kind for q in queries] == ["q_c_sargable"]
        assert queries[0].pattern_index == 0
        # the constants are bound, the tableau is gone
        assert "tab" not in queries[0].sql
        assert "t.A = ?" in queries[0].sql and "t.B = ?" in queries[0].sql
        assert queries[0].parameters == ("y", "2", "d2")

    def test_wildcard_only_patterns_collapse_to_one_statement(self, generator):
        gen = generator("window")
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
        queries = gen.plan_multi_queries(cfd, "tab")
        # identical renderings dedupe to the lowest pattern index
        assert len(queries) == 1
        assert queries[0].pattern_index == 0
        assert queries[0].kind == "q_window"

    def test_window_multi_is_one_pass(self, generator):
        gen = generator("window")
        assert gen.one_pass_multi
        cfd = _cfds()[0]
        queries = gen.plan_multi_queries(cfd, "tab")
        assert {q.kind for q in queries} == {"q_window"}
        # member rows come back directly: tid + lhs_* carry columns
        for query in queries:
            assert "t._tid AS tid" in query.sql
            assert "lhs_A" in query.sql and "lhs_B" in query.sql
            assert "HAVING COUNT(DISTINCT" in query.sql

    def test_legacy_keeps_the_tableau_join(self, generator):
        gen = generator("legacy")
        assert not gen.one_pass_multi
        cfd = _cfds()[0]
        queries = gen.plan_multi_queries(cfd, "tab")
        assert len(queries) == 1
        assert queries[0].kind == "q_v"
        assert "tab" in queries[0].sql


class TestVariantCacheKeys:
    def test_flipping_detect_plan_never_serves_a_stale_shape(self):
        # satellite 6: the cache key carries the variant, so the same CFD
        # compiled under two families yields two distinct cached plans —
        # and flipping back is a hit, not a rebuild
        gen = DetectionSqlGenerator(
            SCHEMA, dialect=SqliteDialect(), detect_plan="legacy"
        )
        cfd = _cfds()[0]
        legacy = gen.plan_multi_queries(cfd, "tab")
        size_after_legacy = gen.plan_cache_size()
        gen.set_detect_plan("window")
        window = gen.plan_multi_queries(cfd, "tab")
        assert {q.sql for q in legacy}.isdisjoint({q.sql for q in window})
        assert gen.plan_cache_size() > size_after_legacy
        gen.set_detect_plan("legacy")
        again = gen.plan_multi_queries(cfd, "tab")
        assert [q.sql for q in again] == [q.sql for q in legacy]
        # the flip-back compiled nothing new
        assert gen.plan_cache_size() == size_after_legacy + len(window)

    def test_per_variant_cache_counters(self):
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry(enabled=True)
        gen = DetectionSqlGenerator(
            SCHEMA,
            dialect=SqliteDialect(),
            detect_plan="window",
            telemetry=telemetry,
        )
        cfd = _cfds()[0]
        gen.plan_multi_queries(cfd, "tab")
        gen.plan_multi_queries(cfd, "tab")
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["plan_cache.misses.window"] >= 1
        assert counters["plan_cache.hits.window"] >= 1


class TestCrossVariantParity:
    def test_batch_reports_identical_across_families(self):
        relation = _relation()
        cfds = _cfds()
        reports = {}
        for plan in DETECT_PLANS:
            backend = SqliteBackend()
            backend.add_relation(relation.copy())
            detector = ErrorDetector(backend, detect_plan=plan)
            reports[plan] = _keys(detector.detect("r", cfds))
            backend.close()
        database = Database()
        database.add_relation(relation.copy())
        native = _keys(ErrorDetector(database, use_sql=False).detect("r", cfds))
        assert reports["legacy"] == reports["window"] == reports["auto"] == native
        assert reports["legacy"]  # the workload does violate

    @pytest.mark.parametrize("plan", ["legacy", "window"])
    def test_detect_for_tuples_matches_filtered_full_detect(self, plan):
        backend = SqliteBackend()
        backend.add_relation(_relation())
        cfds = _cfds()
        detector = ErrorDetector(backend, detect_plan=plan)
        full = detector.detect("r", cfds)
        for tid in range(6):
            restricted = detector.detect_for_tuples("r", cfds, [tid])
            expected = sorted(
                key
                for key in _keys(full)
                if tid in key[2]
            )
            assert _keys(restricted) == expected, (plan, tid)
        backend.close()

    @pytest.mark.parametrize("plan", ["legacy", "window"])
    def test_sql_delta_rechecks_agree_with_batch(self, plan):
        database = Database()
        database.add_relation(_relation())
        cfds = _cfds()
        mirror = SqliteBackend()
        mirror.add_relation(database.relation("r").copy())
        detector = IncrementalDetector(
            database, "r", cfds, mirror=mirror, mode="sql_delta", detect_plan=plan
        )
        detector.update(1, {"C": "c1"})  # heal group (x, 1)
        detector.update(3, {"D": "d9"})  # new single + D-group split
        incremental = _keys(detector.report())
        batch = ErrorDetector(mirror, detect_plan=plan).detect("r", cfds)
        assert incremental == _keys(batch)
        detector.close()
        mirror.close()

    def test_facade_config_threads_the_plan(self, customer_relation, customer_cfds):
        reports = {}
        for plan in ("legacy", "window"):
            system = Semandaq(
                SemandaqConfig(backend="sqlite", telemetry=True, detect_plan=plan)
            )
            system.register_relation(customer_relation.copy())
            system.add_cfds(customer_cfds)
            reports[plan] = _keys(system.detect("customer"))
            counters = system.metrics()["counters"]
            assert counters[f"detect.plan_variant.{plan}"] >= 1
            system.close()
        assert reports["legacy"] == reports["window"]
