"""Tests for the repair review workflow (Fig. 5)."""

import random

import pytest

from repro.core.satisfaction import scan_violations
from repro.errors import RepairError
from repro.repair.repairer import BatchRepairer
from repro.repair.review import ConflictNote, RepairReview


@pytest.fixture
def review(customer_relation, customer_cfds):
    repair = BatchRepairer().repair(customer_relation, customer_cfds)
    return RepairReview(repair, customer_cfds)


class TestInspection:
    def test_modified_cells_and_tuples(self, review):
        assert review.modified_cells()
        assert review.modified_tuples()
        for change in review.modified_cells():
            assert change.tid in review.modified_tuples()

    def test_tuple_diff_shows_old_and_new(self, review):
        tid = review.modified_tuples()[0]
        diff = review.tuple_diff(tid)
        assert diff
        for attribute, (old, new) in diff.items():
            assert old != new

    def test_alternatives_for_modified_cell(self, review):
        change = next(c for c in review.modified_cells() if c.alternatives)
        alternatives = review.alternatives(change.tid, change.attribute)
        assert alternatives == list(change.alternatives)
        costs = [cost for _value, cost in alternatives]
        assert costs == sorted(costs)

    def test_alternatives_for_untouched_cell_rejected(self, review):
        with pytest.raises(RepairError):
            review.alternatives(2, "NAME")

    def test_summary_counts(self, review):
        summary = review.summary()
        assert summary["modified_cells"] == len(review.modified_cells())
        assert summary["overrides"] == 0 and summary["reverts"] == 0


class TestDecisions:
    def test_accept_and_accept_all(self, review):
        change = review.modified_cells()[0]
        review.accept(change.tid, change.attribute)
        assert (change.tid, change.attribute) not in review.pending_cells()
        review.accept_all()
        assert review.pending_cells() == []

    def test_accept_unmodified_cell_rejected(self, review):
        with pytest.raises(RepairError):
            review.accept(2, "NAME")

    def test_override_applies_value_and_reports_conflicts(self, review):
        change = review.modified_cells()[0]
        conflicts = review.override(change.tid, change.attribute, "Custom Value")
        assert review.working.value(change.tid, change.attribute) == "Custom Value"
        assert isinstance(conflicts, list)
        assert review.summary()["overrides"] == 1

    def test_revert_restores_original_and_reintroduces_conflict(self, review):
        # Reverting the repaired street of tuple 0 brings back the phi2 conflict.
        street_changes = [c for c in review.modified_cells() if c.attribute == "STR"]
        if not street_changes:
            pytest.skip("repair chose to fix the other tuple")
        change = street_changes[0]
        conflicts = review.revert(change.tid, change.attribute)
        assert review.working.value(change.tid, change.attribute) == change.old_value
        assert any(note.kind == "multi" for note in conflicts)

    def test_finalise_returns_independent_copy(self, review):
        final = review.finalise()
        change = review.modified_cells()[0]
        final.update(change.tid, {change.attribute: "Scratch"})
        assert review.working.value(change.tid, change.attribute) != "Scratch"


class TestIncrementalConflicts:
    """An edit re-files one tuple; its notes equal a fresh scan's.

    The review keeps one violation state over its working copy instead of
    scanning the whole copy per sub-CFD on every override and revert.  The
    oracle below is that scan.
    """

    @staticmethod
    def _fresh_notes(review, tid):
        notes = []
        for cfd in review.cfds:
            for sub in cfd.normalize():
                scan = scan_violations(review.working, sub)
                for violating_tid, _pattern in scan.single_tuple_violations():
                    if violating_tid == tid:
                        notes.append(ConflictNote(cfd.identifier, "single", (tid,), sub.rhs[0]))
                for _pattern, _key, tids in scan.multi_tuple_violation_groups():
                    if tid in tids:
                        notes.append(
                            ConflictNote(cfd.identifier, "multi", tuple(tids), sub.rhs[0])
                        )
        return notes

    def test_overrides_and_reverts_report_what_a_fresh_scan_finds(
        self, noisy_customers, customer_cfds
    ):
        repair = BatchRepairer().repair(noisy_customers.dirty, customer_cfds)
        review = RepairReview(repair, customer_cfds)
        changes = review.modified_cells()
        assert len(changes) > 5
        rng = random.Random(17)
        tids = review.working.tids()
        reported = 0
        for _step in range(60):
            change = rng.choice(changes)
            if rng.random() < 0.3:
                notes = review.revert(change.tid, change.attribute)
            else:
                # another tuple's value often joins or splits a group
                other = review.working.value(rng.choice(tids), change.attribute)
                value = rng.choice([other, change.old_value, "Custom Value", None])
                notes = review.override(change.tid, change.attribute, value)
            assert notes == self._fresh_notes(review, change.tid)
            reported += len(notes)
            for tid in rng.sample(tids, 3):
                assert review.conflicts_for(tid) == self._fresh_notes(review, tid)
        assert reported  # the sequence did reintroduce conflicts
