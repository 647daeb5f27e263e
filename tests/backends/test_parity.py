"""Multi-path detection parity and the SQLite end-to-end workflow.

The acceptance bar of the backend subsystem: the native detector (the
oracle, reading the working database), the SQL-based detector on SQLite
and the incremental detector's Python group state must produce identical
violation reports on the dirty-customer workload — the same ``vio()`` maps
and the same dirty tids.

Run with ``SEMANDAQ_SQLITE_MODE=file`` to exercise every SQLite backend in
this suite against a tmp-path database file instead of ``:memory:`` (see
``conftest.py``); CI does both.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Semandaq, SemandaqConfig
from repro.backends import SqliteBackend
from repro.core.cfd import CFD
from repro.core.parser import parse_cfd
from repro.core.pattern import PatternTuple
from repro.datasets import generate_customers, inject_noise, paper_cfds
from repro.detection.detector import ErrorDetector
from repro.detection.incremental import IncrementalDetector
from repro.engine.csvio import dump_csv
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.types import AttributeDef, DataType, RelationSchema
from repro.errors import BackendError, DetectionError, SqlBackendRequiredError
from tests.tableaux import (
    NULL_CELL_CFD,
    OVERLAP_CFD,
    TWO_RHS_CFD,
    null_cell_relation,
    overlap_relation,
    two_rhs_relation,
)


@pytest.fixture(scope="module")
def dirty_customers():
    clean = generate_customers(300, seed=17)
    noise = inject_noise(
        clean, rate=0.05, seed=18, attributes=["CNT", "CITY", "STR", "CC"]
    )
    return noise.dirty


@pytest.fixture(scope="module")
def cfds():
    return paper_cfds()


class TestNativeSqlParity:
    def test_native_and_sqlite_sql_agree(
        self, dirty_customers, cfds, sqlite_backend_factory
    ):
        database = Database()
        database.add_relation(dirty_customers.copy())
        native = ErrorDetector(database, use_sql=False).detect("customer", cfds)

        sqlite_backend = sqlite_backend_factory()
        sqlite_backend.add_relation(dirty_customers.copy())
        sqlite_sql = ErrorDetector(sqlite_backend, use_sql=True).detect(
            "customer", cfds
        )
        sqlite_backend.close()

        assert native.vio() == sqlite_sql.vio()
        assert native.dirty_tids() == sqlite_sql.dirty_tids()
        assert native.total_violations() == sqlite_sql.total_violations() > 0

    def test_database_detector_is_native_only(self, dirty_customers, cfds):
        # SQL runs on a StorageBackend; over the working Database the
        # detector is the native oracle and refuses SQL
        database = Database()
        database.add_relation(dirty_customers.copy())
        with pytest.raises(SqlBackendRequiredError):
            ErrorDetector(database, use_sql=True)
        native = ErrorDetector(database, use_sql=False)
        assert native.backend is None
        report = native.detect("customer", cfds)
        assert report.total_violations() > 0
        assert native.last_sql == []

    def test_backend_detector_is_sql_only(
        self, dirty_customers, cfds, sqlite_backend_factory
    ):
        # native detection reads the working Database, never a backend copy
        backend = sqlite_backend_factory()
        backend.add_relation(dirty_customers.copy())
        with pytest.raises(DetectionError) as raised:
            ErrorDetector(backend, use_sql=False)
        assert not isinstance(raised.value, SqlBackendRequiredError)
        detector = ErrorDetector(backend)
        assert detector.database is None
        detector.detect("customer", cfds)
        backend.close()
        assert detector.last_sql

    def test_sqlite_detection_uses_its_dialect(
        self, dirty_customers, cfds, sqlite_backend_factory
    ):
        # detection SQL compares stored values: no string rendering of a
        # column, every constant a bound parameter
        backend = sqlite_backend_factory()
        backend.add_relation(dirty_customers.copy())
        detector = ErrorDetector(backend)
        detector.detect("customer", cfds)
        backend.close()
        assert detector.last_sql
        for sql in detector.last_sql:
            assert "CAST(" not in sql and "pystr(" not in sql
            assert "CONCAT" not in sql and "'" not in sql

    def test_float_encoding_parity_on_exponent_form(self):
        # The text constant '1e+16' is typed by its FLOAT column
        # (CFD.coerced_to) and binds as the float 1e16, which equals the
        # stored REAL; no string form of either side is compared, so
        # exponent-form floats match exactly as the native detector does.
        schema = RelationSchema(
            "m", [AttributeDef("A", DataType.FLOAT), AttributeDef("B")]
        )
        relation = Relation.from_rows(
            schema, [{"A": 1e16, "B": "wrong"}, {"A": 2.5, "B": "right"}]
        )
        cfd = parse_cfd("m: [A='1e+16'] -> [B='right']")
        database = Database()
        database.add_relation(relation.copy())
        native = ErrorDetector(database).detect("m", [cfd])
        backend = SqliteBackend()
        backend.add_relation(relation.copy())
        report = ErrorDetector(backend).detect("m", [cfd])
        backend.close()
        assert _violation_keys(report) == _violation_keys(native)
        assert report.dirty_tids() == {0}

    def test_lhs_indexes_created_on_sqlite(
        self, dirty_customers, cfds, sqlite_backend_factory
    ):
        backend = sqlite_backend_factory()
        backend.add_relation(dirty_customers.copy())
        ErrorDetector(backend).detect("customer", cfds)
        names = {
            row["name"]
            for row in backend.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            )
        }
        backend.close()
        assert any(name.startswith("idx_customer_") for name in names)


def _all_path_reports(relation, cfds, make_sqlite_backend):
    """Reports from every detection path: native, SQL on SQLite, and the
    incremental detector."""
    database = Database()
    database.add_relation(relation.copy())
    native = ErrorDetector(database, use_sql=False).detect(relation.name, cfds)
    sqlite_backend = make_sqlite_backend()
    sqlite_backend.add_relation(relation.copy())
    sqlite_sql = ErrorDetector(sqlite_backend, use_sql=True).detect(
        relation.name, cfds
    )
    incremental = IncrementalDetector(database, relation.name, cfds).report()
    sqlite_backend.close()
    return {
        "native": native,
        "sqlite_sql": sqlite_sql,
        "incremental": incremental,
    }


def _violation_keys(report):
    """Full violation identity, including the pattern index the paths must agree on."""
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


class TestOverlappingPatternParity:
    """Tableaux whose pattern tuples overlap: every path must report each
    violating LHS group exactly once, under its lowest violating pattern."""

    def test_overlapping_wildcard_rhs_patterns(self, sqlite_backend_factory):
        reports = _all_path_reports(
            overlap_relation(), [OVERLAP_CFD], sqlite_backend_factory
        )
        keys = {name: _violation_keys(report) for name, report in reports.items()}
        assert keys["native"] == keys["sqlite_sql"] == keys["incremental"]
        by_group = {
            violation.lhs_values: violation.pattern_index
            for violation in reports["sqlite_sql"].violations
        }
        # each group once, under the lowest pattern that covers it
        assert by_group == {("x", "1"): 0, ("y", "1"): 1}

    def test_restricted_detection_tests_constants_per_key(self):
        # the restricted Q_V of pattern 0 (A='x') must drop the y group's
        # key, or that group would be reported under pattern 0
        relation = overlap_relation()
        for tid in relation.tids():
            native, sql = _restricted_reports(relation, [OVERLAP_CFD], [tid])
            assert _violation_keys(sql) == _violation_keys(native), tid
        native, sql = _restricted_reports(relation, [OVERLAP_CFD], [2])
        assert [v.pattern_index for v in sql.violations] == [1]

    def test_overlapping_constant_rhs_patterns(self, sqlite_backend_factory):
        schema = RelationSchema.of("r", ["A", "C"])
        relation = Relation.from_rows(
            schema,
            [
                {"A": "x", "C": "zz"},  # violates patterns 0 and 1
                {"A": "y", "C": "zz"},  # violates pattern 0 only
                {"A": "x", "C": "c1"},  # clean
            ],
        )
        cfd = CFD(
            relation="r",
            lhs=("A",),
            rhs=("C",),
            patterns=(
                PatternTuple.of({"A": "_", "C": "c1"}),
                PatternTuple.of({"A": "x", "C": "c1"}),
            ),
            name="phi_const_overlap",
        )
        reports = _all_path_reports(relation, [cfd], sqlite_backend_factory)
        keys = {name: _violation_keys(report) for name, report in reports.items()}
        assert keys["native"] == keys["sqlite_sql"] == keys["incremental"]
        by_tid = {
            violation.tids[0]: violation.pattern_index
            for violation in reports["sqlite_sql"].violations
        }
        assert by_tid == {0: 0, 1: 0}

    def test_merged_cfd_with_two_wildcard_rhs_attributes(self, sqlite_backend_factory):
        # The disagreement lives on the SECOND wildcard RHS attribute; a Q_V
        # covering only the first would silently miss it.
        reports = _all_path_reports(
            two_rhs_relation(), [TWO_RHS_CFD], sqlite_backend_factory
        )
        keys = {name: _violation_keys(report) for name, report in reports.items()}
        assert keys["native"] == keys["sqlite_sql"] == keys["incremental"]
        by_rhs = {
            violation.rhs_attribute: violation.tids
            for violation in reports["sqlite_sql"].violations
        }
        assert by_rhs == {"C": (0, 1), "B": (2, 3)}


class TestNullCellParity:
    """Data with NULL LHS and RHS cells: every path must agree.

    SQL equality is UNKNOWN for NULL while the native detector's Python
    comparisons see ``None`` directly; the plans guard every comparison
    (``IS NOT NULL`` applicability, NULL-free group keys), and this
    tableau pins that the guards add up to the native semantics on all
    three detection paths.
    """

    def test_null_lhs_and_rhs_cells(self, sqlite_backend_factory):
        reports = _all_path_reports(
            null_cell_relation(), [NULL_CELL_CFD], sqlite_backend_factory
        )
        keys = {name: _violation_keys(report) for name, report in reports.items()}
        assert keys["native"] == keys["sqlite_sql"] == keys["incremental"]
        by_kind = {
            (violation.kind, violation.lhs_values)
            for violation in reports["sqlite_sql"].violations
        }
        # exactly the non-NULL group violates the FD part; the NULL-RHS
        # tuple under the constant pattern is a single-tuple violation
        assert by_kind == {("multi", ("x", "1")), ("single", ("w", "3"))}


def _restricted_reports(relation, cfds, tids):
    """``detect_for_tuples`` from the native oracle and from SQL on SQLite."""
    database = Database()
    database.add_relation(relation.copy())
    native = ErrorDetector(database).detect_for_tuples(relation.name, cfds, tids)
    backend = SqliteBackend()
    backend.add_relation(relation.copy())
    sql = ErrorDetector(backend).detect_for_tuples(relation.name, cfds, tids)
    backend.close()
    return native, sql


class TestThreePathProperty:
    """Randomised three-path equivalence: batch-native, batch-SQL on
    SQLite and incremental must produce identical reports on random
    relations (NULL cells included) against random tableaux (overlapping
    patterns and multi-wildcard RHS included).  Restricted detection
    (``detect_for_tuples``) of a random tid subset, unknown tids and
    tuples with NULL cells included, must match the native oracle too."""

    attrs = ("A", "B", "C", "D")
    cell = st.sampled_from(["a", "b", None])
    pattern_cell = st.sampled_from(["_", "a", "b"])

    def _draw_cfds(self, data):
        cfds = []
        for index in range(data.draw(st.integers(min_value=1, max_value=2))):
            lhs = tuple(
                data.draw(
                    st.lists(
                        st.sampled_from(self.attrs),
                        min_size=1,
                        max_size=2,
                        unique=True,
                    )
                )
            )
            remaining = [attr for attr in self.attrs if attr not in lhs]
            rhs = tuple(
                data.draw(
                    st.lists(
                        st.sampled_from(remaining),
                        min_size=1,
                        max_size=2,
                        unique=True,
                    )
                )
            )
            patterns = tuple(
                PatternTuple.of(
                    {attr: data.draw(self.pattern_cell) for attr in lhs + rhs}
                )
                for _ in range(data.draw(st.integers(min_value=1, max_value=2)))
            )
            cfds.append(
                CFD(
                    relation="r",
                    lhs=lhs,
                    rhs=rhs,
                    patterns=patterns,
                    name=f"phi_{index}",
                )
            )
        return cfds

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_relations_and_tableaux_agree_on_all_paths(self, data):
        rows = data.draw(
            st.lists(
                st.fixed_dictionaries({attr: self.cell for attr in self.attrs}),
                min_size=0,
                max_size=8,
            )
        )
        relation = Relation.from_rows(
            RelationSchema.of("r", list(self.attrs)), rows
        )
        cfds = self._draw_cfds(data)
        # plain :memory: backends (no fixture: hypothesis re-runs the body
        # many times per test invocation)
        reports = _all_path_reports(relation, cfds, SqliteBackend)
        keys = {name: _violation_keys(report) for name, report in reports.items()}
        assert keys["native"] == keys["sqlite_sql"] == keys["incremental"]
        counts = {report.tuple_count for report in reports.values()}
        assert counts == {len(relation)}
        # a drawn subset (tids past the relation's end are unknown to every
        # path) and every tid, which must give back the full report
        drawn = data.draw(
            st.lists(st.integers(min_value=0, max_value=len(rows) + 2), max_size=5)
        )
        for tids in (drawn, list(range(len(rows)))):
            native, sql = _restricted_reports(relation, cfds, tids)
            assert _violation_keys(sql) == _violation_keys(native)
            assert sql.tuple_count == native.tuple_count == len(relation)
        assert _violation_keys(sql) == keys["native"]


#: typed-column probes: (dtype, the CFD's LHS constant, the violating
#: row's value, a non-matching row's value).  Constants parsed from text
#: arrive as strings; ``CFD.build`` can carry an int on a FLOAT column.
TYPED_PROBES = [
    pytest.param(DataType.INTEGER, "5", 5, 6, id="int-from-text"),
    pytest.param(DataType.FLOAT, "2.5", 2.5, 3.5, id="float-from-text"),
    pytest.param(DataType.FLOAT, "1e+16", 1e16, 2.5, id="float-exponent-from-text"),
    pytest.param(DataType.BOOLEAN, "True", True, False, id="bool-from-text"),
    pytest.param(DataType.FLOAT, 5, 5.0, 6.0, id="int-built-on-float"),
]


#: wildcard-RHS probes: (dtype, one group's RHS values).  The SQL paths
#: compare stored values, native detection engine values; a violation
#: needs two distinct non-NULL values in the group.
TYPED_RHS_GROUPS = [
    pytest.param(DataType.INTEGER, [5, 5, 5], id="int-equal"),
    pytest.param(DataType.INTEGER, [5, 6, None], id="int-distinct-null"),
    pytest.param(DataType.FLOAT, [1e16, 1e16], id="float-equal"),
    pytest.param(DataType.FLOAT, [1e16, 2.5], id="float-distinct"),
    pytest.param(DataType.FLOAT, [2.5, None, 2.5], id="float-equal-null"),
    pytest.param(DataType.BOOLEAN, [True, True, None], id="bool-equal-null"),
    pytest.param(DataType.BOOLEAN, [True, False], id="bool-distinct"),
    pytest.param(DataType.BOOLEAN, [False, None, True], id="bool-distinct-null"),
]


class TestTypedConstants:
    """A constant compares by its attribute's type on every path."""

    @pytest.mark.parametrize("dtype, constant, value, other", TYPED_PROBES)
    def test_typed_constant_parity(self, dtype, constant, value, other):
        schema = RelationSchema("m", [AttributeDef("A", dtype), AttributeDef("B")])
        relation = Relation.from_rows(
            schema, [{"A": value, "B": "wrong"}, {"A": other, "B": "wrong"}]
        )
        cfd = CFD.build("m", {"A": constant}, {"B": "right"}, name="phi_typed")
        reports = _all_path_reports(relation, [cfd], SqliteBackend)
        keys = {name: _violation_keys(report) for name, report in reports.items()}
        assert keys["native"] == [("phi_typed", "single", (0,), "B", 0, (value,))]
        assert keys["sqlite_sql"] == keys["incremental"]
        assert keys["sqlite_sql"] == keys["native"]

    @pytest.mark.parametrize("dtype, values", TYPED_RHS_GROUPS)
    def test_wildcard_rhs_typed_parity(self, dtype, values):
        # the full Q_V counts distinct string encodings, the restricted one
        # compares stored values with the group's minimum: both must find
        # the native detector's groups
        schema = RelationSchema("m", [AttributeDef("A"), AttributeDef("B", dtype)])
        # the probed group, plus a one-member group and a NULL-LHS tuple
        rows = [{"A": "g", "B": value} for value in values]
        rows += [{"A": "h", "B": values[0]}, {"A": None, "B": values[-1]}]
        relation = Relation.from_rows(schema, rows)
        cfd = parse_cfd("m: [A=_] -> [B=_]", name="phi_typed_rhs")
        reports = _all_path_reports(relation, [cfd], SqliteBackend)
        keys = {name: _violation_keys(report) for name, report in reports.items()}
        assert keys["sqlite_sql"] == keys["incremental"] == keys["native"]
        distinct = {value for value in values if value is not None}
        assert bool(keys["native"]) == (len(distinct) > 1)
        for tids in ([0], [len(values) - 1], [len(values)], list(range(len(rows)))):
            native, sql = _restricted_reports(relation, [cfd], tids)
            assert _violation_keys(sql) == _violation_keys(native)


class TestSqliteEndToEnd:
    def test_full_workflow_on_sqlite_backend(
        self, dirty_customers, cfds, sqlite_config
    ):
        csv_text = dump_csv(dirty_customers)
        system = Semandaq(config=sqlite_config())
        assert isinstance(system.backend, SqliteBackend)

        system.load_csv(csv_text, "customer")
        assert system.backend.row_count("customer") == len(dirty_customers)

        system.add_cfds(cfds)
        # tableaux are mirrored into the backend alongside the data
        assert any(
            name.startswith("tableau_") for name in system.backend.relation_names()
        )

        report = system.detect("customer")
        assert system.detector.last_sql  # SQL really ran (pushdown, not native)
        assert report.total_violations() > 0

        audit = system.audit("customer")
        assert audit.dirty_percentage() > 0

        summary = system.clean("customer")
        assert summary["violations_after"] <= summary["violations_before"]
        # the repaired relation was synced back into the backend
        assert system.backend.row_count("customer") == len(dirty_customers)

    def test_sqlite_system_matches_native_system(
        self, dirty_customers, cfds, sqlite_config
    ):
        csv_text = dump_csv(dirty_customers)
        reports = {}
        for use_sql in (False, True):
            system = Semandaq(config=sqlite_config(use_sql_detection=use_sql))
            system.load_csv(csv_text, "customer")
            system.add_cfds(cfds)
            reports[use_sql] = system.detect("customer")
            system.close()
        assert reports[False].vio() == reports[True].vio()
        assert reports[False].dirty_tids() == reports[True].dirty_tids()

    def test_monitor_updates_visible_after_resync(self, cfds, sqlite_config):
        # once a monitor exists, detect() re-syncs the working copy, so
        # updates applied through it are seen by the pushed-down queries.
        from repro.monitor.updates import Update

        clean = generate_customers(60, seed=23)
        system = Semandaq(config=sqlite_config())
        system.register_relation(clean.copy())
        system.add_cfds(cfds)
        assert system.detect("customer").total_violations() == 0
        tid = system.database.relation("customer").tids()[0]
        system.monitor("customer").apply(Update.modify(tid, {"CNT": "Narnia"}))
        assert system.detect("customer").total_violations() > 0

    def test_repeat_detect_skips_bulk_resync(self, cfds, sqlite_config):
        # static data + no monitor: the second detect must not rebuild the
        # backend table (the sync happens at load time and is then cached).
        clean = generate_customers(60, seed=31)
        system = Semandaq(config=sqlite_config())
        system.register_relation(clean.copy())
        system.add_cfds(cfds)
        system.detect("customer")
        calls = []
        original = system.backend.add_relation
        system.backend.add_relation = lambda *a, **k: (calls.append(a), original(*a, **k))
        system.detect("customer")
        # detection writes no relation at all, the data relation included
        assert calls == []

    def test_file_backed_sqlite_configuration(self, tmp_path, cfds):
        path = tmp_path / "semandaq.db"
        config = SemandaqConfig(backend="sqlite", backend_options={"path": str(path)})
        with Semandaq(config=config) as system:
            system.register_relation(generate_customers(40, seed=29))
            system.add_cfds(cfds)
            system.detect("customer")
        assert path.exists()
        # the context manager closed the connection; the backend rejects use
        with pytest.raises(BackendError, match="closed"):
            system.backend.execute("SELECT 1 AS one")
