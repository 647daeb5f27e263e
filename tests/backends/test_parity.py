"""Multi-path detection parity and the SQLite end-to-end workflow.

The acceptance bar of the backend subsystem: the native detector (the
oracle, reading the working database), the SQL-based detector on SQLite,
and both incremental modes (``native`` Python state and the
backend-resident ``sql_delta`` re-checks) must produce identical violation
reports on the dirty-customer workload — the same ``vio()`` maps and the
same dirty tids.

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
from repro.core.pattern import PatternTuple
from repro.datasets import generate_customers, inject_noise, paper_cfds
from repro.detection.detector import ErrorDetector
from repro.detection.incremental import IncrementalDetector
from repro.engine.csvio import dump_csv
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema
from repro.errors import DetectionError, SqlBackendRequiredError


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
        backend = sqlite_backend_factory()
        backend.add_relation(dirty_customers.copy())
        detector = ErrorDetector(backend)
        detector.detect("customer", cfds)
        backend.close()
        assert detector.last_sql
        assert all("CONCAT" not in sql for sql in detector.last_sql)

    def test_float_encoding_parity_on_exponent_form(self):
        # CAST(1e16 AS TEXT) would give '1.0e+16' on SQLite while the
        # tableau encodes str() -> '1e+16'; the sqlite dialect routes FLOAT
        # through a registered Python str() function for exact parity.
        from repro.core.parser import parse_cfd
        from repro.engine.types import AttributeDef, DataType

        schema = RelationSchema(
            "m", [AttributeDef("A", DataType.FLOAT), AttributeDef("B")]
        )
        rows = [{"A": 1e16, "B": "wrong"}, {"A": 2.5, "B": "right"}]
        cfd = parse_cfd("m: [A='1e+16'] -> [B='right']")
        backend = SqliteBackend()
        backend.add_relation(Relation.from_rows(schema, rows))
        report = ErrorDetector(backend).detect("m", [cfd])
        backend.close()
        assert report.total_violations() == 1
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


def _all_path_reports(relation, cfds, make_sqlite_backend, detect_plan=None):
    """Reports from every detection path: native, SQL on SQLite, and both
    incremental evaluation modes.

    ``detect_plan`` pins a plan family on every SQL path; ``None`` keeps
    the auto selection.
    """
    database = Database()
    database.add_relation(relation.copy())
    native = ErrorDetector(database, use_sql=False).detect(relation.name, cfds)
    sqlite_backend = make_sqlite_backend()
    sqlite_backend.add_relation(relation.copy())
    sqlite_sql = ErrorDetector(
        sqlite_backend, use_sql=True, detect_plan=detect_plan
    ).detect(relation.name, cfds)
    incremental = IncrementalDetector(database, relation.name, cfds).report()
    sql_delta_detector = IncrementalDetector(
        database,
        relation.name,
        cfds,
        mirror=sqlite_backend,
        mode="sql_delta",
        detect_plan=detect_plan,
    )
    sql_delta = sql_delta_detector.report()
    sql_delta_detector.close()
    sqlite_backend.close()
    return {
        "native": native,
        "sqlite_sql": sqlite_sql,
        "incremental": incremental,
        "sql_delta": sql_delta,
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
        schema = RelationSchema.of("r", ["A", "B", "C"])
        relation = Relation.from_rows(
            schema,
            [
                {"A": "x", "B": "1", "C": "c1"},
                {"A": "x", "B": "1", "C": "c2"},  # violates patterns 0 and 1
                {"A": "y", "B": "1", "C": "c1"},
                {"A": "y", "B": "1", "C": "c3"},  # violates pattern 1 only
                {"A": "x", "B": "2", "C": "c1"},
                {"A": "x", "B": "2", "C": "c1"},  # agrees: no violation
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
        reports = _all_path_reports(relation, [cfd], sqlite_backend_factory)
        keys = {name: _violation_keys(report) for name, report in reports.items()}
        assert (
            keys["native"]
            == keys["sqlite_sql"]
            == keys["incremental"]
            == keys["sql_delta"]
        )
        by_group = {
            violation.lhs_values: violation.pattern_index
            for violation in reports["sqlite_sql"].violations
        }
        # each group once, under the lowest pattern that covers it
        assert by_group == {("x", "1"): 0, ("y", "1"): 1}

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
        assert (
            keys["native"]
            == keys["sqlite_sql"]
            == keys["incremental"]
            == keys["sql_delta"]
        )
        by_tid = {
            violation.tids[0]: violation.pattern_index
            for violation in reports["sqlite_sql"].violations
        }
        assert by_tid == {0: 0, 1: 0}

    def test_merged_cfd_with_two_wildcard_rhs_attributes(self, sqlite_backend_factory):
        # The disagreement lives on the SECOND wildcard RHS attribute; a Q_V
        # covering only the first would silently miss it.
        schema = RelationSchema.of("r", ["A", "B", "C"])
        relation = Relation.from_rows(
            schema,
            [
                {"A": "x", "B": "b1", "C": "c1"},
                {"A": "x", "B": "b1", "C": "c2"},  # B agrees, C disagrees
                {"A": "y", "B": "b1", "C": "c1"},
                {"A": "y", "B": "b2", "C": "c1"},  # B disagrees, C agrees
            ],
        )
        cfd = CFD(
            relation="r",
            lhs=("A",),
            rhs=("B", "C"),
            patterns=(PatternTuple.of({"A": "_", "B": "_", "C": "_"}),),
            name="phi_two_rhs",
        )
        reports = _all_path_reports(relation, [cfd], sqlite_backend_factory)
        keys = {name: _violation_keys(report) for name, report in reports.items()}
        assert (
            keys["native"]
            == keys["sqlite_sql"]
            == keys["incremental"]
            == keys["sql_delta"]
        )
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
    four detection paths.
    """

    def test_null_lhs_and_rhs_cells(self, sqlite_backend_factory):
        from tests.tableaux import NULL_CELL_CFD, null_cell_relation

        reports = _all_path_reports(
            null_cell_relation(), [NULL_CELL_CFD], sqlite_backend_factory
        )
        keys = {name: _violation_keys(report) for name, report in reports.items()}
        assert (
            keys["native"]
            == keys["sqlite_sql"]
            == keys["incremental"]
            == keys["sql_delta"]
        )
        by_kind = {
            (violation.kind, violation.lhs_values)
            for violation in reports["sqlite_sql"].violations
        }
        # exactly the non-NULL group violates the FD part; the NULL-RHS
        # tuple under the constant pattern is a single-tuple violation
        assert by_kind == {("multi", ("x", "1")), ("single", ("w", "3"))}


class TestFourPathProperty:
    """Randomised four-path equivalence: batch-native, batch-SQL on
    SQLite, incremental-native and ``sql_delta`` must produce identical
    reports on random relations (NULL cells included) against random
    tableaux (overlapping patterns and multi-wildcard RHS included) —
    under both detection plan families."""

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

    @pytest.mark.parametrize("detect_plan", ["legacy", "window"])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_random_relations_and_tableaux_agree_on_all_paths(
        self, detect_plan, data
    ):
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
        reports = _all_path_reports(
            relation, cfds, SqliteBackend, detect_plan=detect_plan
        )
        keys = {name: _violation_keys(report) for name, report in reports.items()}
        assert (
            keys["native"]
            == keys["sqlite_sql"]
            == keys["incremental"]
            == keys["sql_delta"]
        )
        counts = {report.tuple_count for report in reports.values()}
        assert counts == {len(relation)}


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
        # only the per-CFD temp tableaux are written, never the data relation
        assert all(rel.name.startswith("__semandaq_tableau") for rel, *_ in calls)

    def test_file_backed_sqlite_configuration(self, tmp_path, cfds):
        path = tmp_path / "semandaq.db"
        config = SemandaqConfig(backend="sqlite", backend_options={"path": str(path)})
        with Semandaq(config=config) as system:
            system.register_relation(generate_customers(40, seed=29))
            system.add_cfds(cfds)
            system.detect("customer")
        assert path.exists()
        # the context manager closed the connection; the backend rejects use
        with pytest.raises(Exception):
            system.backend.execute("SELECT 1 AS one")
