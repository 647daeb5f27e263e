"""Parity of the ``sql_delta`` incremental mode with the ``native`` mode.

The ``sql_delta`` evaluation mode compiles the incremental detector's
affected-group re-checks to parameterised delta variants of ``Q_C``/``Q_V``
and runs them against a storage backend's resident copy.  The acceptance
bar is report identity with the pure-Python ``native`` mode — same
violations, same pattern indices, same LHS values — across update
sequences, on a SQLite mirror, including the overlapping-pattern and
multi-wildcard-RHS tableaux that historically broke SQL/native parity.
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import SqliteBackend
from repro.core.cfd import CFD
from repro.core.parser import parse_cfd
from repro.core.pattern import PatternTuple
from repro.core.tableau import tableau_to_relation
from repro.datasets import generate_customers, paper_cfds
from repro.detection.detector import ErrorDetector
from repro.detection.incremental import (
    NATIVE_MODE,
    SQL_DELTA_MODE,
    IncrementalDetector,
)
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema
from repro.errors import DetectionError, SqlBackendRequiredError
from tests.doubles import ForbiddenRelation
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


def _make_detector(relation, cfds, mode):
    """A detector over a private working copy; sql_delta gets a SQLite mirror."""
    database = Database()
    database.add_relation(relation.copy())
    if mode == SQL_DELTA_MODE:
        mirror = SqliteBackend()
        mirror.add_relation(database.relation(relation.name))
    else:
        mirror = None
    detector = IncrementalDetector(
        database,
        relation.name,
        cfds,
        mirror=mirror,
        mode=mode,
    )
    return detector, mirror


def _replay(script, relation, cfds):
    """Run ``script`` against a native and a sql_delta detector in lockstep.

    ``script(detector)`` applies the update sequence; reports must be
    identical after the whole sequence, and the sql_delta mirror copy must
    match the working store row for row.
    """
    native, _ = _make_detector(relation, cfds, NATIVE_MODE)
    sql_delta, mirror = _make_detector(relation, cfds, SQL_DELTA_MODE)
    script(native)
    script(sql_delta)
    assert _violation_keys(sql_delta.report()) == _violation_keys(native.report())
    assert dict(mirror.iter_rows(relation.name)) == dict(sql_delta.relation.rows())
    mirror.close()
    return native, sql_delta


OVERLAP_RELATION = Relation.from_rows(
    RelationSchema.of("r", ["A", "B", "C"]),
    [
        {"A": "x", "B": "1", "C": "c1"},
        {"A": "x", "B": "1", "C": "c2"},  # violates patterns 0 and 1
        {"A": "y", "B": "1", "C": "c1"},
        {"A": "y", "B": "1", "C": "c3"},  # violates pattern 1 only
        {"A": "x", "B": "2", "C": "c1"},
        {"A": "x", "B": "2", "C": "c1"},  # agrees: no violation
    ],
)

OVERLAP_CFD = CFD(
    relation="r",
    lhs=("A", "B"),
    rhs=("C",),
    patterns=(
        PatternTuple.of({"A": "x", "B": "_", "C": "_"}),
        PatternTuple.of({"A": "_", "B": "_", "C": "_"}),
    ),
    name="phi_overlap",
)

TWO_RHS_RELATION = Relation.from_rows(
    RelationSchema.of("r", ["A", "B", "C"]),
    [
        {"A": "x", "B": "b1", "C": "c1"},
        {"A": "x", "B": "b1", "C": "c2"},  # B agrees, C disagrees
        {"A": "y", "B": "b1", "C": "c1"},
        {"A": "y", "B": "b2", "C": "c1"},  # B disagrees, C agrees
    ],
)

TWO_RHS_CFD = CFD(
    relation="r",
    lhs=("A",),
    rhs=("B", "C"),
    patterns=(PatternTuple.of({"A": "_", "B": "_", "C": "_"}),),
    name="phi_two_rhs",
)


class TestInitialState:
    @pytest.mark.usefixtures("plan_family")
    def test_initial_report_matches_native(self):
        dirty = generate_customers(80, seed=91)
        relation = Relation.from_rows(dirty.schema, dirty.to_list())
        relation.update(0, {"CNT": "Narnia"})
        relation.update(1, {"STR": "Wrong Street"})
        native, _ = _make_detector(relation, paper_cfds(), NATIVE_MODE)
        sql_delta, mirror = _make_detector(relation, paper_cfds(), SQL_DELTA_MODE)
        assert _violation_keys(sql_delta.report()) == _violation_keys(native.report())
        assert sql_delta.report().total_violations() > 0
        # the initial build is SQL all the way down: full Q_C/Q_V, no
        # native per-tuple state construction
        assert sql_delta.delta_queries > 0
        assert sql_delta.tuples_examined == 0
        mirror.close()

    def test_unknown_mode_rejected(self):
        database = Database()
        database.add_relation(generate_customers(5, seed=1))
        with pytest.raises(DetectionError):
            IncrementalDetector(database, "customer", paper_cfds(), mode="psychic")


class TestUpdateParity:
    @pytest.mark.usefixtures("plan_family")
    def test_customer_update_sequence(self):
        relation = generate_customers(60, seed=47)
        template = dict(relation.get(0))

        def script(detector):
            with detector.batch():
                detector.insert(dict(template, STR="A Brand New Street"))
                detector.update(1, {"CNT": "Narnia"})
                detector.delete(2)
            detector.update(3, {"CC": "99"})
            with detector.batch():
                detector.update(1, {"CNT": template["CNT"]})  # revert
                detector.delete(relation_last_tid(detector))

        def relation_last_tid(detector):
            return detector.relation.tids()[-1]

        native, sql_delta = _replay(script, relation, paper_cfds())
        # and both agree with a from-scratch batch detection oracle
        oracle = ErrorDetector(sql_delta.database, use_sql=False).detect(
            "customer", paper_cfds()
        )
        assert _violation_keys(sql_delta.report()) == _violation_keys(oracle)

    @pytest.mark.usefixtures("plan_family")
    def test_overlapping_pattern_tableau(self):
        def script(detector):
            with detector.batch():
                # flip group (x, 2) into violation, heal group (y, 1)
                detector.update(5, {"C": "c9"})
                detector.update(3, {"C": "c1"})
            # touch the doubly-covered group: delete one of its members
            detector.delete(1)
            # and re-create the disagreement through an insert
            detector.insert({"A": "x", "B": "1", "C": "c7"})

        native, sql_delta = _replay(
            script, OVERLAP_RELATION, [OVERLAP_CFD]
        )
        by_group = {
            violation.lhs_values: violation.pattern_index
            for violation in sql_delta.report().violations
        }
        # each group once, under the lowest pattern that covers it
        assert by_group == {("x", "1"): 0, ("x", "2"): 0}

    @pytest.mark.usefixtures("plan_family")
    def test_two_wildcard_rhs_tableau(self):
        def script(detector):
            with detector.batch():
                detector.update(1, {"C": "c1"})  # heal the C disagreement
                detector.update(2, {"B": "b2"})  # heal the B disagreement
            detector.insert({"A": "y", "B": "b9", "C": "c9"})  # break both for A=y

        native, sql_delta = _replay(
            script, TWO_RHS_RELATION, [TWO_RHS_CFD]
        )
        report = sql_delta.report()
        assert {v.rhs_attribute for v in report.violations} == {"B", "C"}
        assert all(v.lhs_values == ("y",) for v in report.violations)

    @pytest.mark.usefixtures("plan_family")
    def test_delete_then_reinsert_same_tid_in_one_batch(self):
        # nets out to a replace: one delete + one insert under the same tid
        relation = generate_customers(20, seed=53)

        def script(detector):
            replacement = dict(detector.relation.get(0), CNT="Narnia")
            with detector.batch():
                detector.delete(0)
                new_tid = detector.insert(replacement)
                detector.update(new_tid, {"CITY": "Nowhere"})

        _replay(script, relation, paper_cfds())

    value = st.sampled_from(["a", "b", None])
    operation = st.sampled_from(["insert", "delete", "update"])

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_property_random_batches(self, data):
        schema = RelationSchema.of("customer", ["CNT", "ZIP", "STR", "CC"])
        row_strategy = st.fixed_dictionaries(
            {"CNT": self.value, "ZIP": self.value, "STR": self.value, "CC": self.value}
        )
        initial = data.draw(st.lists(row_strategy, min_size=1, max_size=8))
        relation = Relation.from_rows(schema, initial)
        cfds = [
            parse_cfd("customer: [CNT='a', ZIP=_] -> [STR=_]"),
            parse_cfd("customer: [CC='a'] -> [CNT='b']"),
            parse_cfd("customer: [CC=_] -> [CNT=_]"),
        ]
        native, _ = _make_detector(relation, cfds, NATIVE_MODE)
        sql_delta, mirror = _make_detector(relation, cfds, SQL_DELTA_MODE)
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            with native.batch(), sql_delta.batch():
                for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
                    op = data.draw(self.operation)
                    tids = native.relation.tids()
                    if op == "insert" or not tids:
                        row = data.draw(row_strategy)
                        native.insert(row)
                        sql_delta.insert(row)
                    elif op == "delete":
                        tid = data.draw(st.sampled_from(tids))
                        native.delete(tid)
                        sql_delta.delete(tid)
                    else:
                        tid = data.draw(st.sampled_from(tids))
                        attribute = data.draw(
                            st.sampled_from(["CNT", "ZIP", "STR", "CC"])
                        )
                        change = {attribute: data.draw(self.value)}
                        native.update(tid, change)
                        sql_delta.update(tid, change)
            assert _violation_keys(sql_delta.report()) == _violation_keys(
                native.report()
            )
        assert dict(mirror.iter_rows("customer")) == dict(sql_delta.relation.rows())
        mirror.close()


NULL_RELATION = null_cell_relation()
NULL_CFD = NULL_CELL_CFD


class TestNullParity:
    """NULL LHS/RHS cells: SQL-path detection must match the native rules.

    The native detector keeps NULL-LHS tuples out of every group and
    treats a NULL RHS under a constant pattern as a single-tuple violation;
    the SQL plans must agree, including through the delta re-checks and
    the one-pass member enumeration.
    """

    @pytest.mark.usefixtures("plan_family")
    def test_static_null_tableau_parity(self):
        native, _ = _make_detector(NULL_RELATION, [NULL_CFD], NATIVE_MODE)
        sql_delta, mirror = _make_detector(NULL_RELATION, [NULL_CFD], SQL_DELTA_MODE)
        assert _violation_keys(sql_delta.report()) == _violation_keys(native.report())
        report = sql_delta.report()
        # the NULL-RHS constant-pattern tuple is a single violation; only
        # the fully non-NULL group violates the FD part
        assert {v.kind for v in report.violations} == {"single", "multi"}
        assert {v.lhs_values for v in report.violations} == {("w", "3"), ("x", "1")}
        mirror.close()

    @pytest.mark.usefixtures("plan_family")
    def test_null_updates_parity(self):
        def script(detector):
            with detector.batch():
                detector.update(0, {"A": None})      # NULL an LHS cell
                detector.update(6, {"C": "c6"})      # un-NULL an RHS cell
            detector.update(8, {"C": "c9"})          # heal the constant violation
            with detector.batch():
                detector.update(0, {"A": "x"})       # restore the LHS cell
                detector.insert({"A": "q", "B": None, "C": "c1"})
                detector.update(4, {"C": None})      # NULL an RHS cell
        native, sql_delta = _replay(
            script, NULL_RELATION, [NULL_CFD]
        )
        # the re-created group and the un-NULLed RHS group both violate now
        assert {v.lhs_values for v in sql_delta.report().violations} == {
            ("x", "1"),
            ("z", "2"),
        }

    @pytest.mark.usefixtures("plan_family")
    def test_null_parity_against_batch_oracle(self):
        def script(detector):
            detector.update(2, {"A": "x"})  # pull a NULL-LHS tuple into a group
        native, sql_delta = _replay(
            script, NULL_RELATION, [NULL_CFD]
        )
        oracle = ErrorDetector(sql_delta.database, use_sql=False).detect(
            "r", [NULL_CFD]
        )
        assert _violation_keys(sql_delta.report()) == _violation_keys(oracle)


class TestParameterBudget:
    """Chunking by bound parameters, not group count (the wide-LHS bug)."""

    WIDE_ATTRS = tuple(f"A{index}" for index in range(1, 7))

    def _wide_setup(self, groups=300):
        schema = RelationSchema.of("w", list(self.WIDE_ATTRS) + ["C"])
        rows = []
        for index in range(groups):
            row = {attr: f"v{index}_{attr}" for attr in self.WIDE_ATTRS}
            rows.append(dict(row, C="x"))
            rows.append(dict(row, C="x"))
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
        return relation, cfd

    def test_wide_lhs_regression_under_999_variable_cap(self):
        # a 6-attribute LHS at 300 affected groups used to ship
        # 200 * 6 + pattern placeholders per statement — over SQLite's
        # default 999-variable cap; chunks are now sized by the dialect's
        # parameter budget
        relation, cfd = self._wide_setup()
        database = Database()
        database.add_relation(relation.copy())
        mirror = SqliteBackend(max_parameters=999)
        if hasattr(mirror._conn, "setlimit"):
            # make SQLite actually enforce the historical cap
            mirror._conn.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 999)
        mirror.add_relation(database.relation("w"))
        sql_delta = IncrementalDetector(
            database, "w", [cfd], mirror=mirror, mode=SQL_DELTA_MODE
        )
        with sql_delta.batch():
            for tid in range(0, 2 * 300, 2):
                sql_delta.update(tid, {"C": f"y{tid % 3}"})
        native, _ = _make_detector(
            sql_delta.relation, [cfd], NATIVE_MODE
        )
        assert _violation_keys(sql_delta.report()) == _violation_keys(native.report())
        assert sql_delta.report().total_violations() == 300
        mirror.close()

    def test_one_statement_never_exceeds_the_budget(self):
        relation, cfd = self._wide_setup(groups=50)
        database = Database()
        database.add_relation(relation.copy())
        mirror = SqliteBackend(max_parameters=120)
        mirror.add_relation(database.relation("w"))
        seen = []
        original = mirror.execute

        def counting_execute(sql, parameters=None):
            seen.append(len(tuple(parameters or ())))
            return original(sql, parameters)

        mirror.execute = counting_execute
        sql_delta = IncrementalDetector(
            database, "w", [cfd], mirror=mirror, mode=SQL_DELTA_MODE
        )
        with sql_delta.batch():
            for tid in range(0, 100, 2):
                sql_delta.update(tid, {"C": f"y{tid % 3}"})
        sql_delta.report()
        assert seen and max(seen) <= 120
        mirror.close()


class TestBackendResidentAssembly:
    """sql_delta report assembly must never read the working store."""

    _ForbiddenRelation = ForbiddenRelation

    @pytest.mark.usefixtures("plan_family")
    def test_report_reads_zero_working_store(self):
        relation = generate_customers(60, seed=101)
        relation.update(0, {"CNT": "Narnia"})
        sql_delta, mirror = _make_detector(relation, paper_cfds(), SQL_DELTA_MODE)
        sql_delta.update(1, {"STR": "Elsewhere Road"})
        with sql_delta.batch():
            sql_delta.insert(dict(relation.get(2), CC="99"))
            sql_delta.delete(3)
        live = sql_delta.relation
        sql_delta.relation = self._ForbiddenRelation("customer")
        try:
            report = sql_delta.report()
        finally:
            sql_delta.relation = live
        assert report.total_violations() > 0
        assert report.tuple_count == len(live)
        native, _ = _make_detector(live, paper_cfds(), NATIVE_MODE)
        assert _violation_keys(report) == _violation_keys(native.report())
        mirror.close()

    def test_monitored_report_reads_zero_working_store(self):
        from repro.monitor.monitor import DataMonitor
        from repro.monitor.updates import Update

        relation = generate_customers(40, seed=103)
        database = Database()
        database.add_relation(relation.copy())
        mirror = SqliteBackend()
        mirror.add_relation(database.relation("customer"))
        monitor = DataMonitor(
            database, "customer", paper_cfds(), backend=mirror, mode=SQL_DELTA_MODE
        )
        monitor.apply(Update.modify(0, {"CNT": "Narnia"}))
        live = monitor._detector.relation
        monitor._detector.relation = self._ForbiddenRelation("customer")
        try:
            report = monitor.current_report()
        finally:
            monitor._detector.relation = live
        assert report.total_violations() > 0
        mirror.close()


class TestRowValuePlans:
    """The row-value semi-join restriction of multi-attribute groups."""

    def test_row_value_plans_run_against_sqlite(self):
        relation = OVERLAP_RELATION.copy()
        database = Database()
        database.add_relation(relation)
        mirror = SqliteBackend()
        mirror.add_relation(database.relation("r"))
        sql_delta = IncrementalDetector(
            database, "r", [OVERLAP_CFD], mirror=mirror, mode=SQL_DELTA_MODE
        )
        seen = []
        original = mirror.execute

        def recording_execute(sql, parameters=None):
            seen.append(sql)
            return original(sql, parameters)

        mirror.execute = recording_execute
        sql_delta.update(0, {"C": "c9"})
        assert any("IN (VALUES" in sql for sql in seen)
        native, _ = _make_detector(
            sql_delta.relation, [OVERLAP_CFD], NATIVE_MODE
        )
        assert _violation_keys(sql_delta.report()) == _violation_keys(native.report())
        mirror.close()



class TestLifecycle:
    def test_orphaned_tableaux_dropped_on_reopen(self, tmp_path):
        # stores written before detection stopped materialising pattern
        # tableaux still hold them; reopening must not adopt them as user
        # relations
        path = tmp_path / "orphan.db"
        mirror = SqliteBackend(path=str(path))
        relation = generate_customers(10, seed=57)
        mirror.add_relation(relation.copy())
        mirror.add_relation(tableau_to_relation(paper_cfds()[0], "__semandaq_old_0"))
        mirror.close()
        with SqliteBackend(path=str(path)) as reopened:
            assert reopened.relation_names() == ["customer"]

    def test_monitor_mode_tracks_detector_fallback(self):
        from repro.monitor.monitor import DataMonitor

        relation = generate_customers(10, seed=58)
        database = Database()
        database.add_relation(relation.copy())
        mirror = SqliteBackend()
        mirror.add_relation(database.relation("customer"))
        monitor = DataMonitor(
            database, "customer", paper_cfds(), backend=mirror, mode=SQL_DELTA_MODE
        )
        assert monitor.mode == SQL_DELTA_MODE
        monitor.detach_backend()
        assert monitor.mode == NATIVE_MODE
        assert monitor.summary()["incremental_mode"] == NATIVE_MODE
        mirror.close()

    def test_detach_falls_back_to_native(self):
        relation = generate_customers(30, seed=59)
        sql_delta, mirror = _make_detector(
            relation, paper_cfds(), SQL_DELTA_MODE
        )
        sql_delta.update(0, {"CNT": "Narnia"})
        before = _violation_keys(sql_delta.report())
        sql_delta.detach_mirror()
        assert sql_delta.mode == NATIVE_MODE
        assert sql_delta.mirror is None
        # the former query backend holds what it held before
        assert mirror.relation_names() == ["customer"]
        # detached detectors keep working, against the working store only
        assert _violation_keys(sql_delta.report()) == before
        sql_delta.update(0, {"CNT": relation.get(0)["CNT"]})
        assert sql_delta.report().is_clean()
        mirror.close()

    def test_mark_resynced_rebuilds_from_backend(self):
        relation = generate_customers(30, seed=61)
        sql_delta, mirror = _make_detector(
            relation, paper_cfds(), SQL_DELTA_MODE
        )

        def exploding(name, batch):
            raise RuntimeError("disk full")

        original = mirror.apply_delta_batch
        mirror.apply_delta_batch = exploding
        with pytest.raises(RuntimeError):
            sql_delta.update(0, {"CNT": "Narnia"})
        mirror.apply_delta_batch = original
        assert sql_delta.mirror_desynced
        # the owner's recovery path: bulk re-sync, then rebuild the state
        mirror.add_relation(sql_delta.relation, replace=True)
        sql_delta.mark_resynced()
        assert not sql_delta.mirror_desynced
        native, _ = _make_detector(
            sql_delta.relation, paper_cfds(), NATIVE_MODE
        )
        assert _violation_keys(sql_delta.report()) == _violation_keys(native.report())
        mirror.close()

    def test_detector_stays_usable_after_close(self):
        # close() stops the backend queries but the detector keeps working:
        # updates still ship to the mirror and detection falls back to the
        # (lazily rebuilt) native state, with no spurious desync flag
        relation = generate_customers(20, seed=69)
        sql_delta, mirror = _make_detector(
            relation, paper_cfds(), SQL_DELTA_MODE
        )
        sql_delta.close()
        assert sql_delta.mode == NATIVE_MODE
        sql_delta.update(0, {"CNT": "Narnia"})
        assert not sql_delta.mirror_desynced
        assert mirror.get_row("customer", 0)["CNT"] == "Narnia"
        native, _ = _make_detector(
            sql_delta.relation, paper_cfds(), NATIVE_MODE
        )
        assert _violation_keys(sql_delta.report()) == _violation_keys(native.report())
        mirror.close()

    def test_nested_batch_rejected(self):
        relation = generate_customers(5, seed=71)
        native, _ = _make_detector(relation, paper_cfds(), NATIVE_MODE)
        with native.batch():
            with pytest.raises(DetectionError):
                with native.batch():
                    pass  # pragma: no cover

    def test_sql_delta_without_mirror_raises(self):
        # the re-checks run on the mirror's copy: without one there is
        # nothing to push them down to
        database = Database()
        database.add_relation(generate_customers(20, seed=73))
        with pytest.raises(SqlBackendRequiredError, match="mirror"):
            IncrementalDetector(
                database, "customer", paper_cfds(), mode=SQL_DELTA_MODE
            )
        assert database.relation_names() == ["customer"]

    def test_failed_recheck_rebuilds_consistent_state(self):
        relation = generate_customers(30, seed=79)
        sql_delta, mirror = _make_detector(
            relation, paper_cfds(), SQL_DELTA_MODE
        )
        original_execute = mirror.execute
        calls = {"remaining_failures": 1}

        def flaky_execute(sql, parameters=None):
            if calls["remaining_failures"] > 0:
                calls["remaining_failures"] -= 1
                raise RuntimeError("database is locked")
            return original_execute(sql, parameters)

        mirror.execute = flaky_execute
        with pytest.raises(RuntimeError):
            sql_delta.update(0, {"CNT": "Narnia"})
        # the batch shipped and the torn re-check state was rebuilt from
        # full queries, so the detector is consistent, not desynced
        assert not sql_delta.mirror_desynced
        native, _ = _make_detector(
            sql_delta.relation, paper_cfds(), NATIVE_MODE
        )
        assert _violation_keys(sql_delta.report()) == _violation_keys(native.report())
        mirror.close()

    def test_large_batch_recheck_is_chunked(self):
        # an OR-chain with one disjunct per touched tuple would blow
        # SQLite's expression-depth cap (1000) on big batches; re-checks
        # run in chunks instead
        schema = RelationSchema.of("r", ["A", "B"])
        rows = [{"A": f"g{i % 600}", "B": "x"} for i in range(1200)]
        relation = Relation.from_rows(schema, rows)
        cfd = parse_cfd("r: [A=_] -> [B=_]")
        native, _ = _make_detector(relation, [cfd], NATIVE_MODE)
        sql_delta, mirror = _make_detector(relation, [cfd], SQL_DELTA_MODE)
        for detector in (native, sql_delta):
            with detector.batch():
                for tid in range(1100):
                    detector.update(tid, {"B": f"y{tid % 3}"})
        assert _violation_keys(sql_delta.report()) == _violation_keys(native.report())
        assert sql_delta.report().total_violations() > 0
        mirror.close()

    def test_two_detectors_on_one_backend_do_not_clobber(self):
        # a retired detector (still held by user code) and its replacement
        # share the relation and the backend; neither writes anything to
        # the backend, so closing one must not break the other
        relation = generate_customers(20, seed=97)
        database = Database()
        database.add_relation(relation.copy())
        mirror = SqliteBackend()
        mirror.add_relation(database.relation("customer"))
        old = IncrementalDetector(
            database, "customer", paper_cfds(), mirror=mirror, mode=SQL_DELTA_MODE
        )
        new = IncrementalDetector(
            database, "customer", paper_cfds(), mirror=mirror, mode=SQL_DELTA_MODE
        )
        old.close()
        new.update(0, {"CNT": "Narnia"})
        assert new.report().total_violations() > 0
        new.close()
        mirror.close()

    def test_constant_rhs_units_skip_delta_qv(self):
        # a constant-RHS-only CFD can never have multi-tuple violations:
        # each update batch should cost exactly one delta Q_C round trip
        schema = RelationSchema.of("r", ["A", "C"])
        relation = Relation.from_rows(
            schema, [{"A": "x", "C": "c1"}, {"A": "y", "C": "c2"}]
        )
        cfd = CFD(
            relation="r",
            lhs=("A",),
            rhs=("C",),
            patterns=(PatternTuple.of({"A": "x", "C": "c1"}),),
            name="phi_const",
        )
        sql_delta, mirror = _make_detector(relation, [cfd], SQL_DELTA_MODE)
        sql_delta.reset_cost_counter()
        sql_delta.update(0, {"C": "zz"})
        assert sql_delta.delta_queries == 1
        assert [v.kind for v in sql_delta.report().violations] == ["single"]
        mirror.close()
