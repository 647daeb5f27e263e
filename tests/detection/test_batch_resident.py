"""Backend-resident batch detection: zero working-store reads and the
pushed-down ``detect_for_tuples``.

The batch ``ErrorDetector``'s SQL path must behave like the paper's
pushdown end to end: schema and row count come from catalog ops, the
``Q_C``/``Q_V`` queries run inside the backend, and the report is
assembled from backend rows alone — enforced here by the
:class:`~tests.doubles.ForbiddenReadBackend` double over SQLite.
``detect_for_tuples`` ships the tuple restriction down as restricted
plans and must reproduce the old filter-after-detect semantics exactly,
including under an enforced 999-variable cap.
"""

import sqlite3

import pytest

from repro import Semandaq
from repro.backends import SqliteBackend
from repro.core.cfd import CFD
from repro.core.parser import parse_cfd
from repro.core.pattern import PatternTuple
from repro.datasets import generate_customers, inject_noise, paper_cfds
from repro.detection.detector import ErrorDetector
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.types import AttributeDef, DataType, RelationSchema
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


def _backend_for(relation, sqlite_options):
    """A loaded SQLite backend plus a private native-oracle database."""
    database = Database()
    database.add_relation(relation.copy())
    backend = SqliteBackend(**sqlite_options())
    backend.add_relation(relation.copy())
    return backend, database


def _filtered_oracle(database, relation_name, cfds, tids):
    """The old semantics: a full native detection filtered to ``tids``."""
    report = ErrorDetector(database).detect(relation_name, cfds)
    wanted = set(tids)
    return sorted(
        key
        for key in _violation_keys(report)
        if wanted & set(key[2])
    )


@pytest.mark.usefixtures("plan_family")
class TestZeroWorkingStoreReads:
    """detect() and detect_for_tuples() on the SQL path never ship rows back."""

    def test_detect_zero_reads(self, sqlite_options):
        relation = _dirty_customers()
        backend, database = _backend_for(relation, sqlite_options)
        detector = ErrorDetector(ForbiddenReadBackend(backend))
        report = detector.detect("customer", paper_cfds())
        assert report.total_violations() > 0
        assert report.tuple_count == len(relation)
        oracle = ErrorDetector(database).detect(
            "customer", paper_cfds()
        )
        assert _violation_keys(report) == _violation_keys(oracle)
        backend.close()

    def test_detect_for_tuples_zero_reads(self, sqlite_options):
        relation = _dirty_customers()
        backend, database = _backend_for(relation, sqlite_options)
        detector = ErrorDetector(ForbiddenReadBackend(backend))
        full = ErrorDetector(database).detect("customer", paper_cfds())
        wanted = sorted(full.dirty_tids())[:5] + [0, 1]
        report = detector.detect_for_tuples("customer", paper_cfds(), wanted)
        assert report.tuple_count == len(relation)
        assert _violation_keys(report) == _filtered_oracle(
            database, "customer", paper_cfds(), wanted
        )
        assert report.total_violations() > 0
        backend.close()

    def test_repeated_detect_zero_reads(self, sqlite_options):
        # the per-relation generator and its plan cache persist across
        # calls; the second detect must stay backend-resident too
        relation = _dirty_customers(60, seed=137)
        backend, database = _backend_for(relation, sqlite_options)
        detector = ErrorDetector(ForbiddenReadBackend(backend))
        first = detector.detect("customer", paper_cfds())
        second = detector.detect("customer", paper_cfds())
        assert _violation_keys(first) == _violation_keys(second)
        backend.close()


class TestDetectForTuplesPushdown:
    """Pushdown parity with the old filter-after-full-detect semantics."""

    def test_matches_filter_after_detect_on_customers(self, sqlite_options):
        relation = _dirty_customers()
        backend, database = _backend_for(relation, sqlite_options)
        detector = ErrorDetector(backend)
        full = ErrorDetector(database).detect("customer", paper_cfds())
        dirty = sorted(full.dirty_tids())
        for wanted in ([], dirty[:1], dirty[:4], [0, 1, 2], list(relation.tids())):
            report = detector.detect_for_tuples("customer", paper_cfds(), wanted)
            assert _violation_keys(report) == _filtered_oracle(
                database, "customer", paper_cfds(), wanted
            )
            assert report.tuple_count == len(relation)
        backend.close()

    def test_restriction_travels_in_the_sql(self, sqlite_options):
        relation = _dirty_customers(40, seed=139)
        backend, _database = _backend_for(relation, sqlite_options)
        detector = ErrorDetector(backend)
        detector.detect_for_tuples("customer", paper_cfds(), [0, 1])
        assert detector.last_sql
        assert any("_tid IN" in sql for sql in detector.last_sql)
        backend.close()

    def test_unknown_tids_produce_empty_report(self, sqlite_options):
        relation = _dirty_customers(30, seed=141)
        backend, _database = _backend_for(relation, sqlite_options)
        detector = ErrorDetector(backend)
        report = detector.detect_for_tuples("customer", paper_cfds(), [10_000, 10_001])
        assert report.total_violations() == 0
        assert report.tuple_count == len(relation)
        backend.close()

    def test_null_rhs_tuple_does_not_drag_its_group_in(self, sqlite_options):
        # tid 6 shares LHS values with the violating-adjacent (z, 2) group
        # but carries a NULL RHS, so it is not a *member*: the old filter
        # semantics exclude any group it does not belong to
        relation = null_cell_relation()
        backend, database = _backend_for(relation, sqlite_options)
        detector = ErrorDetector(backend)
        for wanted in ([6], [2], [0], [8], [0, 6]):
            report = detector.detect_for_tuples("r", [NULL_CELL_CFD], wanted)
            assert _violation_keys(report) == _filtered_oracle(
                database, "r", [NULL_CELL_CFD], wanted
            )
        backend.close()

    def test_overlapping_patterns_keep_lowest_pattern_index(self, sqlite_options):
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
        backend, database = _backend_for(relation, sqlite_options)
        detector = ErrorDetector(backend)
        report = detector.detect_for_tuples("r", [cfd], [0, 2])
        assert _violation_keys(report) == _filtered_oracle(
            database, "r", [cfd], [0, 2]
        )
        by_group = {v.lhs_values: v.pattern_index for v in report.violations}
        assert by_group == {("x", "1"): 0, ("y", "1"): 1}
        backend.close()

    WIDE_ATTRS = tuple(f"A{index}" for index in range(1, 7))

    def test_wide_lhs_chunking_under_999_variable_cap(self, sqlite_backend_factory):
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
        backend = sqlite_backend_factory(max_parameters=999)
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

    def test_groups_straddling_two_chunks_come_back_once_whole(
        self, sqlite_backend_factory
    ):
        # 1,500 tids under a 999-value budget: two restricted Q_V
        # statements, and every group k >= 249 has one member in each
        # chunk (tids k and k + 750), so both statements return it
        schema = RelationSchema.of("s", ["A", "C"])
        rows = [
            {"A": f"g{index % 750}", "C": "x" if index < 750 else f"y{index % 3}"}
            for index in range(1500)
        ]
        relation = Relation.from_rows(schema, rows)
        cfd = CFD(
            relation="s",
            lhs=("A",),
            rhs=("C",),
            patterns=(PatternTuple.of({"A": "_", "C": "_"}),),
            name="phi_straddle",
        )
        database = Database()
        database.add_relation(relation.copy())
        backend = sqlite_backend_factory(max_parameters=999)
        backend.add_relation(relation.copy())
        detector = ErrorDetector(backend)
        wanted = list(range(1500))
        report = detector.detect_for_tuples("s", [cfd], wanted)
        windows = [sql for sql in detector.last_sql if "SELECT DISTINCT s.A" in sql]
        assert len(windows) == 2
        assert len(report.violations) == 750
        assert all(len(violation.tids) == 2 for violation in report.violations)
        assert _violation_keys(report) == _filtered_oracle(database, "s", [cfd], wanted)

    def test_warm_request_runs_five_statements(self, sqlite_backend_factory, monkeypatch):
        # over the paper's CFDs a warm 4-tid request checks 2 constant-RHS
        # patterns and 3 groups' CFDs, each in one statement that reads
        # its own group keys, and compiles nothing
        relation = _dirty_customers()
        backend = sqlite_backend_factory()
        backend.add_relation(relation.copy())
        detector = ErrorDetector(backend)
        cfds = paper_cfds()
        wanted = [3, 17, 42, 99]
        first = detector.detect_for_tuples("customer", cfds, wanted)
        generator = detector._prepared["customer"].generator
        misses = generator.plan_cache_misses
        kinds = []
        execute = detector._execute
        counts = {"coerced_to": 0, "restrict": 0, "row_count": 0}

        def counting(name, method):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return method(*args, **kwargs)

            return wrapper

        def recording(query):
            kinds.append(query.kind)
            return execute(query)

        monkeypatch.setattr(detector, "_execute", recording)
        monkeypatch.setattr(CFD, "coerced_to", counting("coerced_to", CFD.coerced_to))
        monkeypatch.setattr(
            PatternTuple, "restrict", counting("restrict", PatternTuple.restrict)
        )
        monkeypatch.setattr(backend, "row_count", counting("row_count", backend.row_count))
        second = detector.detect_for_tuples("customer", cfds, wanted)
        assert second == first
        assert sorted(kinds) == ["q_c_sargable"] * 2 + ["q_window"] * 3
        assert counts == {"coerced_to": 0, "restrict": 0, "row_count": 1}
        assert generator.plan_cache_misses == misses


class TestPreparedCfds:
    """The detector prepares a relation's CFDs once and notices when they change."""

    SCHEMA = RelationSchema.of("r", ["A", "B", "C"])
    ROWS = [
        {"A": "a1", "B": "true", "C": "c1"},
        {"A": "a1", "B": "true", "C": "c2"},  # a1 disagrees; B=true wants c1
        {"A": "a2", "B": "false", "C": "c3"},
        {"A": "a2", "B": "true", "C": "c1"},  # a2 disagrees
    ]

    def test_cfd_list_and_relation_changes_are_picked_up(self, sqlite_config):
        # each step must reach the SQL system's prepared CFDs: a detector
        # that kept the old CFD list or the old schema's typing answers
        # differently from the native system
        systems = [
            Semandaq(sqlite_config(use_sql_detection=flag)) for flag in (True, False)
        ]
        tids = [0, 1, 2, 3]

        def agree():
            sql, native = (
                _violation_keys(system.detect_for_tuples("r", tids))
                for system in systems
            )
            assert sql == native
            return sql

        for system in systems:
            system.register_relation(self.SCHEMA, self.ROWS)
            system.add_cfd(parse_cfd("r: [A=_] -> [C=_]", name="phi_a"))
        assert {key[0] for key in agree()} == {"phi_a"}
        for system in systems:
            system.add_cfd(parse_cfd("r: [B='true'] -> [C='c1']", name="phi_b"))
        assert {key[0] for key in agree()} == {"phi_a", "phi_b"}
        for system in systems:
            system.constraints.remove("phi_a")
        assert {key[0] for key in agree()} == {"phi_b"}
        # the same CFD list over a retyped relation: phi_b's constant must
        # now bind as the BOOLEAN true (stored 1), which the text 'true'
        # typed for the old schema never equals
        typed = RelationSchema(
            "r", [AttributeDef("A"), AttributeDef("B", DataType.BOOLEAN), AttributeDef("C")]
        )
        typed_rows = [dict(row, B=row["B"] == "true") for row in self.ROWS]
        for system in systems:
            system.register_relation(typed, typed_rows, replace=True)
        keys = agree()
        assert [(key[2], key[5]) for key in keys] == [((1,), (True,))]
        for system in systems:
            system.close()


    def test_a_dropped_relation_gets_its_indexes_back(self, sqlite_backend_factory):
        # the prepared CFDs hold while the schema object does, but dropping
        # a relation drops its indexes: every call asks for them again
        relation = _dirty_customers(40, seed=151)
        backend = sqlite_backend_factory()
        backend.add_relation(relation.copy())
        detector = ErrorDetector(backend)
        first = detector.detect_for_tuples("customer", paper_cfds(), [0, 1, 2])
        schema = backend.schema("customer")
        backend.drop_relation("customer")
        backend.create_relation(schema, rows=[row for _tid, row in relation.stored_rows()])
        assert backend.schema("customer") is schema
        indexes = "SELECT name FROM sqlite_master WHERE type = 'index'"
        assert not [row for row in backend.execute(indexes) if "CNT" in row["name"]]
        second = detector.detect_for_tuples("customer", paper_cfds(), [0, 1, 2])
        assert _violation_keys(second) == _violation_keys(first)
        names = [row["name"] for row in backend.execute(indexes)]
        assert len([name for name in names if name.startswith("idx_customer_")]) == 3

    def test_an_empty_request_creates_no_index(self, sqlite_backend_factory):
        # a request naming no tid runs no statement, so it must not take
        # the writer lock to index the relation
        relation = _dirty_customers(40, seed=151)
        backend = sqlite_backend_factory()
        backend.add_relation(relation.copy())
        detector = ErrorDetector(backend)
        report = detector.detect_for_tuples("customer", paper_cfds(), [])
        assert report.violations == []
        assert report.tuple_count == len(relation)
        indexes = "SELECT name FROM sqlite_master WHERE type = 'index'"
        assert not [
            row for row in backend.execute(indexes) if row["name"].startswith("idx_")
        ]


class TestPreparedPlanCache:
    """The per-detector plan cache, keyed by CFD value."""

    @pytest.mark.usefixtures("plan_family")
    def test_repeated_detect_hits_the_cache(self, sqlite_options):
        relation = _dirty_customers(60, seed=149)
        backend, _database = _backend_for(relation, sqlite_options)
        detector = ErrorDetector(backend)
        first = detector.detect("customer", paper_cfds())
        generator = detector._prepared["customer"].generator
        misses_after_first = generator.plan_cache_misses
        second = detector.detect("customer", paper_cfds())
        assert _violation_keys(first) == _violation_keys(second)
        assert generator.plan_cache_hits > 0
        # the second pass re-rendered nothing (chunk shapes repeat exactly)
        assert generator.plan_cache_misses == misses_after_first
        backend.close()

    def test_same_named_cfds_do_not_share_plans(self, sqlite_options):
        # two different CFDs under the same name and registration slot;
        # the first has no constant-RHS pattern (it compiles no Q_C), the
        # second does — a plan cached under the name or the slot would
        # silently drop its single-tuple violations
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
        backend, _database = _backend_for(relation, sqlite_options)
        detector = ErrorDetector(backend)
        detector.detect("r", [wildcard_only])
        report = detector.detect("r", [constant_rhs])
        assert [v.kind for v in report.violations] == ["single"]
        assert report.violations[0].tids == (0,)
        backend.close()
