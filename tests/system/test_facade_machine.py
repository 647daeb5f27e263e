"""The SQL and the native system give the same answers under any sequence of facade calls.

A hypothesis state machine drives two systems through the same calls: one
with SQL detection on, over a file-backed SQLite store, and one with it
off (the native oracle).  The relation is a small ``r(A, B, C, D)`` over a
three-letter alphabet, so CFDs added from a fixed pool have violations to
find and repairs to make.  After every step:

* the two systems' working rows are equal;
* the SQL system's backend rows equal its working rows, except while the
  relation is marked stale (the re-sync is lazy by design);
* a live monitor's report equals a native detection of the working rows.

Every rule compares what the two systems answer, a typed error included.
Incremental repair may leave a violation on arbitrary tableaux, so after
a repair-mode batch the machine checks that both systems agree, not that
they are clean.
"""

import os
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro import Semandaq, SemandaqConfig
from repro.detection.detector import ErrorDetector
from repro.engine.types import RelationSchema
from repro.errors import SemandaqError
from repro.monitor.updates import Update

NAME = "r"
ATTRIBUTES = ("A", "B", "C", "D")
SCHEMA = RelationSchema.of(NAME, list(ATTRIBUTES))
VALUES = st.sampled_from(["a", "b", "c"])
ROWS = st.fixed_dictionaries({attribute: VALUES for attribute in ATTRIBUTES})

#: the CFDs a step may add: wildcard and constant patterns, one- and
#: two-attribute LHS
CFD_TEXTS = (
    "r: [A=_] -> [B=_]",
    "r: [A=_, B=_] -> [C=_]",
    "r: [C=_] -> [D=_]",
    "r: [A='a'] -> [B='b']",
    "r: [B='a', C=_] -> [D=_]",
    "r: [D=_] -> [A=_]",
)


def _report(report):
    return (
        report.tuple_count,
        sorted(
            (v.cfd_id, v.kind, v.tids, v.rhs_attribute, v.pattern_index, v.lhs_values)
            for v in report.violations
        ),
    )


def _rows(relation):
    return sorted(relation.rows())


def _changes(repair):
    return [(c.tid, c.attribute, c.old_value, c.new_value) for c in repair.changes]


class FacadeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.TemporaryDirectory()
        self.systems = ()
        self.monitored = False

    @initialize(rows=st.lists(ROWS, min_size=2, max_size=8))
    def load(self, rows):
        path = os.path.join(self.directory.name, "r.db")
        self.systems = (
            Semandaq(
                SemandaqConfig(
                    check_consistency_on_add=False, backend_options={"path": path}
                )
            ),
            Semandaq(
                SemandaqConfig(use_sql_detection=False, check_consistency_on_add=False)
            ),
        )
        for system in self.systems:
            system.register_relation(SCHEMA, rows)

    def teardown(self):
        for system in self.systems:
            system.close()
        self.directory.cleanup()

    # -- helpers ---------------------------------------------------------------

    def _both(self, call):
        """Run ``call`` on both systems; their answers, or error types, must agree."""
        outcomes = []
        for system in self.systems:
            try:
                outcomes.append(("ok", call(system)))
            except SemandaqError as exc:
                outcomes.append(("error", type(exc).__name__))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def _tids(self):
        return self.systems[0].database.relation(NAME).tids()

    # -- constraints -----------------------------------------------------------

    @rule(text=st.sampled_from(CFD_TEXTS))
    def add_cfd(self, text):
        self._both(lambda system: system.add_cfd(text).identifier)

    @precondition(lambda self: self.systems[0].constraints.cfds(NAME))
    @rule(data=st.data())
    def remove_cfd(self, data):
        cfd = data.draw(st.sampled_from(self.systems[0].constraints.cfds(NAME)))
        self._both(lambda system: system.constraints.remove(cfd.identifier))

    # -- detection, audit ------------------------------------------------------

    @rule()
    def detect(self):
        self._both(lambda system: _report(system.detect(NAME)))

    @rule()
    def last_report(self):
        self._both(lambda system: _report(system.last_report(NAME)))

    @rule()
    def audit(self):
        self._both(lambda system: system.audit(NAME).to_dict())

    # -- repair ----------------------------------------------------------------

    @rule()
    def repair(self):
        self._both(lambda system: _changes(system.repair(NAME)))

    @rule()
    def apply_repair(self):
        self._both(lambda system: _rows(system.apply_repair(NAME)))

    @rule()
    def review_and_apply(self):
        def reviewed(system):
            review = system.review(NAME)
            return _changes(review.repair), _rows(
                system.apply_repair(NAME, review.finalise())
            )

        self._both(reviewed)

    @rule()
    def clean(self):
        self._both(lambda system: system.clean(NAME))

    # -- updates ---------------------------------------------------------------

    @rule(data=st.data())
    def apply_updates(self, data):
        tids = self._tids()
        touched = (
            data.draw(st.lists(st.sampled_from(tids), unique=True, max_size=3))
            if tids
            else []
        )
        updates = [
            Update.delete(tid)
            if data.draw(st.booleans())
            else Update.modify(
                tid,
                data.draw(
                    st.dictionaries(st.sampled_from(ATTRIBUTES), VALUES, min_size=1, max_size=2)
                ),
            )
            for tid in touched
        ]
        updates += [Update.insert(row) for row in data.draw(st.lists(ROWS, max_size=1))]
        self.monitored = True
        self._both(lambda system: system.apply_updates(NAME, updates))

    @rule()
    def monitor_report(self):
        self.monitored = True
        self._both(lambda system: _report(system.monitor(NAME).current_report()))

    @precondition(lambda self: self._tids())
    @rule(data=st.data())
    def direct_edit(self, data):
        tid = data.draw(st.sampled_from(self._tids()))
        changes = {data.draw(st.sampled_from(ATTRIBUTES)): data.draw(VALUES)}
        for system in self.systems:
            system.database.relation(NAME).update(tid, changes)
            system.mark_backend_stale(NAME)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def working_rows_agree(self):
        if self.systems:
            sql, native = self.systems
            assert _rows(sql.database.relation(NAME)) == _rows(native.database.relation(NAME))

    @invariant()
    def backend_tracks_the_working_rows(self):
        if self.systems:
            sql = self.systems[0]
            if not sql._backend_lags(NAME):
                assert sorted(sql.backend.iter_rows(NAME)) == _rows(
                    sql.database.relation(NAME)
                )

    @invariant()
    def a_live_monitor_reports_what_detection_finds(self):
        if self.monitored:
            for system in self.systems:
                oracle = ErrorDetector(system.database).detect(
                    NAME, system.constraints.cfds(NAME)
                )
                assert _report(system.monitor(NAME).current_report()) == _report(oracle)


FacadeMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=25, deadline=None
)
TestFacadeMachine = FacadeMachine.TestCase
