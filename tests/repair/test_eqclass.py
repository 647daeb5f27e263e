"""Tests for cell equivalence classes."""

import pytest

from repro.errors import RepairError
from repro.repair.cost import CostModel
from repro.repair.eqclass import EquivalenceClasses


@pytest.fixture
def classes():
    eq = EquivalenceClasses()
    eq.add((0, "STR"))
    eq.add((1, "STR"))
    eq.add((2, "STR"))
    return eq


class TestUnionFind:
    def test_singletons_initially(self, classes):
        assert len(classes) == 3
        assert not classes.together((0, "STR"), (1, "STR"))

    def test_union_merges(self, classes):
        classes.union((0, "STR"), (1, "STR"))
        assert classes.together((0, "STR"), (1, "STR"))
        assert len(classes) == 2

    def test_union_is_transitive(self, classes):
        classes.union((0, "STR"), (1, "STR"))
        classes.union((1, "STR"), (2, "STR"))
        assert classes.together((0, "STR"), (2, "STR"))
        assert set(classes.members((0, "STR"))) == {(0, "STR"), (1, "STR"), (2, "STR")}

    def test_find_adds_unknown_cells(self):
        eq = EquivalenceClasses()
        root = eq.find((7, "A"))
        assert root == (7, "A")
        assert (7, "A") in eq

    def test_classes_enumeration(self, classes):
        classes.union((0, "STR"), (1, "STR"))
        groups = classes.classes()
        assert sorted(len(group) for group in groups) == [1, 2]


class TestMembersCost:
    """Listing a class costs its size, not the number of registered cells.

    ``_resolve_single`` lists the members of a cell's class two to three
    times per single-tuple violation, so a scan over every cell made a
    repair quadratic in its single-tuple violations.  Counted calls pin
    it, not timings.
    """

    def test_members_does_not_visit_unrelated_cells(self, monkeypatch):
        eq = EquivalenceClasses()
        for tid in range(500):
            eq.add((tid, "CNT"))
        eq.union((3, "CNT"), (7, "CNT"))
        eq.union((7, "CNT"), (1, "CNT"))
        calls = {"find": 0}
        find = EquivalenceClasses.find

        def counting(self, cell):
            calls["find"] += 1
            return find(self, cell)

        monkeypatch.setattr(EquivalenceClasses, "find", counting)
        assert eq.members((7, "CNT")) == [(1, "CNT"), (3, "CNT"), (7, "CNT")]
        assert eq.members((250, "CNT")) == [(250, "CNT")]
        assert calls["find"] <= 4, calls

    def test_members_and_classes_follow_unions(self):
        eq = EquivalenceClasses()
        cells = [(tid, "A") for tid in range(8)]
        for left, right in [(0, 4), (5, 1), (4, 1), (6, 7)]:
            eq.union(cells[left], cells[right])
        eq.add(cells[2])
        expected = [[cells[0], cells[1], cells[4], cells[5]], [cells[2]], [cells[6], cells[7]]]
        assert eq.classes() == expected
        assert len(eq) == 3
        for group in expected:
            for cell in group:
                assert eq.members(cell) == group


class TestPinning:
    def test_pin_and_read(self, classes):
        classes.pin((0, "STR"), "High St")
        assert classes.pinned_value((0, "STR")) == "High St"
        assert classes.is_pinned((0, "STR"))
        assert not classes.is_pinned((1, "STR"))

    def test_pin_propagates_through_union(self, classes):
        classes.pin((0, "STR"), "High St")
        classes.union((0, "STR"), (1, "STR"))
        assert classes.pinned_value((1, "STR")) == "High St"

    def test_conflicting_pin_rejected(self, classes):
        classes.pin((0, "STR"), "High St")
        with pytest.raises(RepairError):
            classes.pin((0, "STR"), "Low Rd")

    def test_conflicting_union_rejected(self, classes):
        classes.pin((0, "STR"), "High St")
        classes.pin((1, "STR"), "Low Rd")
        with pytest.raises(RepairError):
            classes.union((0, "STR"), (1, "STR"))

    def test_same_pin_union_allowed(self, classes):
        classes.pin((0, "STR"), "High St")
        classes.pin((1, "STR"), "High St")
        classes.union((0, "STR"), (1, "STR"))
        assert classes.pinned_value((0, "STR")) == "High St"


class TestChooseValue:
    def test_majority_value_wins_with_uniform_weights(self, classes):
        classes.union((0, "STR"), (1, "STR"))
        classes.union((1, "STR"), (2, "STR"))
        values = {(0, "STR"): "High St", (1, "STR"): "High St", (2, "STR"): "Low Rd"}
        best, cost, ranked = classes.choose_value((0, "STR"), values, CostModel.uniform())
        assert best == "High St"
        assert ranked[0][0] == "High St"
        assert cost <= ranked[-1][1]

    def test_weights_can_flip_choice(self, classes):
        classes.union((0, "STR"), (1, "STR"))
        classes.union((1, "STR"), (2, "STR"))
        values = {(0, "STR"): "High St", (1, "STR"): "High St", (2, "STR"): "Low Rd"}
        model = CostModel.uniform()
        model.protect_cell(2, "STR")  # the minority cell is untouchable
        best, _cost, _ranked = classes.choose_value((0, "STR"), values, model)
        assert best == "Low Rd"

    def test_pinned_constant_wins_even_if_costlier(self, classes):
        classes.union((0, "STR"), (1, "STR"))
        classes.pin((0, "STR"), "Official Name")
        values = {(0, "STR"): "High St", (1, "STR"): "High St"}
        best, _cost, ranked = classes.choose_value((0, "STR"), values, CostModel.uniform())
        assert best == "Official Name"
        assert any(value == "Official Name" for value, _ in ranked)

    def test_extra_candidates_are_ranked(self, classes):
        values = {(0, "STR"): "High St"}
        _best, _cost, ranked = classes.choose_value(
            (0, "STR"), values, CostModel.uniform(), candidates=["Other St"]
        )
        assert {value for value, _ in ranked} == {"High St", "Other St"}

    def test_only_replaces_the_members_values(self, classes):
        # a 1:1 tie: without the restriction "Aberdeen" wins on value order
        classes.union((0, "CITY"), (1, "CITY"))
        values = {(0, "CITY"): "Leeds", (1, "CITY"): "Aberdeen"}
        tied, _cost, _ranked = classes.choose_value(
            (0, "CITY"), values, CostModel.uniform()
        )
        assert tied == "Aberdeen"
        best, cost, ranked = classes.choose_value(
            (0, "CITY"), values, CostModel.uniform(), only=["Leeds"]
        )
        assert best == "Leeds"
        assert ranked == [("Leeds", cost)]

    def test_no_candidates_raises(self):
        eq = EquivalenceClasses()
        eq.add((0, "A"))
        with pytest.raises(RepairError):
            eq.choose_value((0, "A"), {(0, "A"): None}, CostModel.uniform())
