"""Tests for incremental detection: equivalence with batch detection and cost locality.

Update sequences run against a detector that mirrors every batch to a
SQLite backend.  After each sequence its report must equal a fresh native
detection of the working store and a SQL detection of the mirror — same
violations, pattern indices and LHS values — and the mirror must hold the
working store's rows.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import SqliteBackend
from repro.core.parser import parse_cfd
from repro.core.pattern import PatternTuple
from repro.datasets import generate_customers, paper_cfds
from repro.detection.detector import ErrorDetector
from repro.detection.incremental import IncrementalDetector
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema
from repro.errors import DetectionError
from tests.tableaux import (
    NULL_CELL_CFD,
    OVERLAP_CFD,
    TWO_RHS_CFD,
    null_cell_relation,
    overlap_relation,
    two_rhs_relation,
)


def reports_equal(left, right):
    """Order-insensitive comparison of two violation reports."""
    def canon(report):
        return {
            (v.cfd_id, v.kind, v.tids, v.rhs_attribute) for v in report.violations
        }
    return canon(left) == canon(right) and left.vio() == right.vio()


def _violation_keys(report):
    """Full violation identity, including pattern index and LHS values."""
    return sorted(
        (v.cfd_id, v.kind, v.tids, v.rhs_attribute, v.pattern_index, v.lhs_values)
        for v in report.violations
    )


def _mirrored(relation, cfds, sqlite_options):
    """A detector over a private working copy, mirrored to a SQLite backend."""
    database = Database()
    database.add_relation(relation.copy())
    mirror = SqliteBackend(**sqlite_options())
    mirror.add_relation(database.relation(relation.name))
    return IncrementalDetector(database, relation.name, cfds, mirror=mirror), mirror


def _assert_matches_oracles(detector, mirror, cfds):
    """The report equals native and SQL detection; the mirror equals the store."""
    name = detector.relation_name
    keys = _violation_keys(detector.report())
    assert keys == _violation_keys(ErrorDetector(detector.database).detect(name, cfds))
    assert keys == _violation_keys(ErrorDetector(mirror).detect(name, cfds))
    assert dict(mirror.iter_rows(name)) == dict(detector.relation.rows())


def _replay(script, relation, cfds, sqlite_options):
    """Run ``script(detector)`` on a mirrored detector and check it against the oracles."""
    detector, mirror = _mirrored(relation, cfds, sqlite_options)
    try:
        script(detector)
        _assert_matches_oracles(detector, mirror, cfds)
    finally:
        mirror.close()
    return detector


_PROPERTY_ATTRIBUTES = ["CNT", "ZIP", "STR", "CC"]
_PROPERTY_VALUE = st.sampled_from(["a", "b", None])
_PROPERTY_ROW = st.fixed_dictionaries({a: _PROPERTY_VALUE for a in _PROPERTY_ATTRIBUTES})
_PROPERTY_CFDS = [
    parse_cfd("customer: [CNT='a', ZIP=_] -> [STR=_]"),
    parse_cfd("customer: [CC='a'] -> [CNT='b']"),
    parse_cfd("customer: [CC=_] -> [CNT=_]"),
]


def _draw_relation(data):
    """A small random relation over the property tests' schema."""
    schema = RelationSchema.of("customer", _PROPERTY_ATTRIBUTES)
    return Relation.from_rows(
        schema, data.draw(st.lists(_PROPERTY_ROW, min_size=1, max_size=8))
    )


def _apply_random_op(data, detector):
    """Draw one insert, delete or update of 1-4 cells and apply it to ``detector``.

    An update of several cells can move a tuple's LHS and RHS at once.
    """
    op = data.draw(st.sampled_from(["insert", "delete", "update"]))
    tids = detector.relation.tids()
    if op == "insert" or not tids:
        detector.insert(data.draw(_PROPERTY_ROW))
    elif op == "delete":
        detector.delete(data.draw(st.sampled_from(tids)))
    else:
        tid = data.draw(st.sampled_from(tids))
        attributes = data.draw(
            st.lists(
                st.sampled_from(_PROPERTY_ATTRIBUTES), min_size=1, max_size=4, unique=True
            )
        )
        detector.update(tid, {attribute: data.draw(_PROPERTY_VALUE) for attribute in attributes})


@pytest.fixture
def incremental(customer_database, customer_cfds):
    return IncrementalDetector(customer_database, "customer", customer_cfds)


class TestInitialState:
    def test_initial_report_matches_batch(self, customer_database, customer_cfds, incremental):
        batch = ErrorDetector(customer_database).detect("customer", customer_cfds)
        assert reports_equal(incremental.report(), batch)

    def test_wrong_relation_rejected(self, customer_database):
        with pytest.raises(DetectionError):
            IncrementalDetector(customer_database, "customer", [parse_cfd("orders: [A=_] -> [B=_]")])


class TestUpdates:
    def test_insert_violating_tuple_detected(self, incremental):
        tid = incremental.insert(
            {"NAME": "Zed", "CNT": "FR", "CITY": "PAR", "ZIP": "75001",
             "STR": "Rue", "CC": "44", "AC": "01"}
        )
        report = incremental.report()
        assert any(v.is_single and v.tids == (tid,) for v in report.violations)

    def test_delete_removes_violations(self, incremental):
        incremental.delete(4)  # Anna, the single-tuple violator
        report = incremental.report()
        assert not report.single_violations()

    def test_update_fixing_violation(self, incremental):
        incremental.update(4, {"CNT": "UK"})
        report = incremental.report()
        assert not report.single_violations()

    def test_update_creating_multi_violation(self, incremental):
        # Change Mary's street so the US zip group now disagrees.
        incremental.update(3, {"STR": "Elsewhere Blvd"})
        report = incremental.report()
        assert any(
            v.is_multi and set(v.tids) == {2, 3} and v.rhs_attribute == "CITY"
            for v in report.violations
        ) is False  # city still agrees
        # phi1 does not fire, but the plain FD inside phi3 is untouched; check
        # that the update itself did not corrupt other state.
        assert report.tuple_count == 6

    def test_cost_counter_and_reset(self, incremental):
        incremental.reset_cost_counter()
        incremental.insert(
            {"NAME": "A", "CNT": "US", "CITY": "NYC", "ZIP": "01202",
             "STR": "Mountain Ave", "CC": "01", "AC": "212"}
        )
        assert incremental.tuples_examined > 0
        examined = incremental.tuples_examined
        # One insert examines the tuple once per CFD pattern, far fewer times
        # than a full re-detection over all tuples would.
        assert examined <= 20


class TestEquivalenceWithBatch:
    def test_after_update_sequence(self, customer_database, customer_cfds):
        incremental = IncrementalDetector(customer_database, "customer", customer_cfds)
        incremental.update(4, {"CNT": "UK"})
        incremental.insert(
            {"NAME": "New", "CNT": "UK", "CITY": "EDI", "ZIP": "EH4 1DT",
             "STR": "Third Street", "CC": "44", "AC": "131"}
        )
        incremental.delete(5)
        batch = ErrorDetector(customer_database).detect("customer", customer_cfds)
        assert reports_equal(incremental.report(), batch)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_random_update_sequences(self, sqlite_options, data):
        # unbatched: every statement ships its own DeltaBatch to the mirror
        incremental, mirror = _mirrored(
            _draw_relation(data), _PROPERTY_CFDS, sqlite_options
        )
        try:
            for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
                _apply_random_op(data, incremental)
            _assert_matches_oracles(incremental, mirror, _PROPERTY_CFDS)
        finally:
            mirror.close()


class TestUseCfds:
    """Switching the CFDs keeps the relation, the mirror and the counters."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_a_switch_mid_sequence_matches_the_oracles(
        self, sqlite_options, data
    ):
        before = data.draw(st.lists(st.sampled_from(_PROPERTY_CFDS), unique=True))
        after = data.draw(st.lists(st.sampled_from(_PROPERTY_CFDS), unique=True))
        incremental, mirror = _mirrored(_draw_relation(data), before, sqlite_options)
        try:
            for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
                _apply_random_op(data, incremental)
            changes = incremental.changes_applied
            incremental.use_cfds(after)
            assert incremental.changes_applied == changes
            for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
                _apply_random_op(data, incremental)
            assert incremental.changes_applied > changes
            _assert_matches_oracles(incremental, mirror, after)
        finally:
            mirror.close()


class TestCostLocality:
    def test_incremental_examines_fewer_tuples_than_batch(self, customer_cfds):
        relation = generate_customers(300, seed=9)
        database = Database()
        database.add_relation(relation)
        incremental = IncrementalDetector(database, "customer", customer_cfds)
        initial_cost = incremental.tuples_examined
        incremental.reset_cost_counter()
        incremental.update(0, {"CITY": "WRONG"})
        assert incremental.tuples_examined < initial_cost / 10


class TestStartStateCost:
    def test_start_state_pattern_calls_do_not_grow_with_rows(self, monkeypatch):
        """Building the start state tests rows through the compiled matchers.

        The detector examines every (tuple, pattern) pair once and counts
        each in ``tuples_examined``; the pattern-tuple calls it makes are a
        function of the CFDs, not of the rows.  Counted calls pin it.
        """
        calls = {"restrict": 0, "value": 0}

        def counting(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        examined = []
        counts = []
        for size in (20, 400):
            database = Database()
            database.add_relation(generate_customers(size, seed=9))
            for name in calls:
                calls[name] = 0
                monkeypatch.setattr(
                    PatternTuple, name, counting(name, getattr(PatternTuple, name))
                )
            # fresh CFDs: each build compiles its matchers once
            detector = IncrementalDetector(database, "customer", paper_cfds())
            monkeypatch.undo()
            counts.append(dict(calls))
            examined.append(detector.tuples_examined)
        assert counts[0] == counts[1], counts
        # one examination per (tuple, pattern row) of each RHS attribute's unit
        units = sum(len(cfd.patterns) * len(cfd.rhs) for cfd in paper_cfds())
        assert examined == [20 * units, 400 * units]


class TestMirroredUpdateSequences:
    """Scripted batches, each checked against both oracles and the mirror rows."""

    def test_customer_update_sequence(self, sqlite_options):
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
                detector.delete(detector.relation.tids()[-1])

        detector = _replay(script, relation, paper_cfds(), sqlite_options)
        assert detector.batches_shipped == 3

    def test_one_update_moves_lhs_and_rhs(self, sqlite_options):
        relation = generate_customers(60, seed=47)
        groups = {}
        for tid, row in relation.stored_rows():
            if row["CNT"] == "UK":
                groups.setdefault(row["ZIP"], []).append(tid)
        # a member of a clean phi1/phi2 group: UK tuples sharing a ZIP
        group = next(tids for tids in groups.values() if len(tids) > 1)
        member = group[0]

        def script(detector):
            assert detector.report().violations_for(member) == []
            # one update takes the member out of its (CNT, ZIP) group and
            # gives it a new CITY: phi3's CC group and phi4 now see it
            detector.update(member, {"CNT": "Narnia", "CITY": "Nowhere"})
            moved = detector.report().violations_for(member)
            assert {v.cfd_id for v in moved} == {"phi3", "phi4"}
            # back into the group with a CITY its members do not hold
            detector.update(member, {"CNT": "UK", "CITY": "Elsewhere"})
            assert [
                (v.cfd_id, v.tids) for v in detector.report().violations_for(member)
            ] == [("phi1", tuple(group))]

        _replay(script, relation, paper_cfds(), sqlite_options)

    def test_overlapping_pattern_tableau(self, sqlite_options):
        def script(detector):
            with detector.batch():
                # flip group (x, 2) into violation, heal group (y, 1)
                detector.update(5, {"C": "c9"})
                detector.update(3, {"C": "c1"})
            # touch the doubly-covered group: delete one of its members
            detector.delete(1)
            # and re-create the disagreement through an insert
            detector.insert({"A": "x", "B": "1", "C": "c7"})

        detector = _replay(script, overlap_relation(), [OVERLAP_CFD], sqlite_options)
        by_group = {
            violation.lhs_values: violation.pattern_index
            for violation in detector.report().violations
        }
        # each group once, under the lowest pattern that covers it
        assert by_group == {("x", "1"): 0, ("x", "2"): 0}

    def test_two_wildcard_rhs_tableau(self, sqlite_options):
        def script(detector):
            with detector.batch():
                detector.update(1, {"C": "c1"})  # heal the C disagreement
                detector.update(2, {"B": "b2"})  # heal the B disagreement
            detector.insert({"A": "y", "B": "b9", "C": "c9"})  # break both for A=y

        report = _replay(script, two_rhs_relation(), [TWO_RHS_CFD], sqlite_options).report()
        assert {v.rhs_attribute for v in report.violations} == {"B", "C"}
        assert all(v.lhs_values == ("y",) for v in report.violations)

    def test_delete_then_reinsert_same_tid_in_one_batch(self, sqlite_options):
        # nets out to a replace: one delete + one insert under the same tid
        def script(detector):
            replacement = dict(detector.relation.get(0), CNT="Narnia")
            with detector.batch():
                detector.delete(0)
                new_tid = detector.insert(replacement)
                detector.update(new_tid, {"CITY": "Nowhere"})

        _replay(script, generate_customers(20, seed=53), paper_cfds(), sqlite_options)

    def test_null_cell_tableau(self, sqlite_options):
        report = _replay(
            lambda detector: None, null_cell_relation(), [NULL_CELL_CFD], sqlite_options
        ).report()
        # the NULL-RHS constant-pattern tuple is a single violation; only
        # the fully non-NULL group violates the FD part
        assert {v.kind for v in report.violations} == {"single", "multi"}
        assert {v.lhs_values for v in report.violations} == {("w", "3"), ("x", "1")}

    def test_null_cell_updates(self, sqlite_options):
        def script(detector):
            with detector.batch():
                detector.update(0, {"A": None})      # NULL an LHS cell
                detector.update(6, {"C": "c6"})      # un-NULL an RHS cell
            detector.update(8, {"C": "c9"})          # heal the constant violation
            with detector.batch():
                detector.update(0, {"A": "x"})       # restore the LHS cell
                detector.insert({"A": "q", "B": None, "C": "c1"})
                detector.update(4, {"C": None})      # NULL an RHS cell

        detector = _replay(script, null_cell_relation(), [NULL_CELL_CFD], sqlite_options)
        # the re-created group and the un-NULLed RHS group both violate now
        assert {v.lhs_values for v in detector.report().violations} == {
            ("x", "1"),
            ("z", "2"),
        }

    def test_null_lhs_tuple_joins_a_group(self, sqlite_options):
        def script(detector):
            detector.update(2, {"A": "x"})  # pull a NULL-LHS tuple into a group

        detector = _replay(script, null_cell_relation(), [NULL_CELL_CFD], sqlite_options)
        assert len(detector.report().violations_for(2)) == 1

    def test_nested_batch_rejected(self, sqlite_options):
        detector, mirror = _mirrored(
            generate_customers(5, seed=71), paper_cfds(), sqlite_options
        )
        with detector.batch():
            with pytest.raises(DetectionError):
                with detector.batch():
                    pass  # pragma: no cover
        mirror.close()

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_property_random_batches(self, sqlite_options, data):
        incremental, mirror = _mirrored(
            _draw_relation(data), _PROPERTY_CFDS, sqlite_options
        )
        try:
            for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
                # each round is one coalesced DeltaBatch shipped to the mirror
                with incremental.batch():
                    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
                        _apply_random_op(data, incremental)
                _assert_matches_oracles(incremental, mirror, _PROPERTY_CFDS)
        finally:
            mirror.close()
