"""Tests for the batch repair algorithm."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parser import parse_cfd
from repro.core.pattern import PatternTuple
from repro.core.satisfaction import satisfies_all, violating_tids
from repro.datasets import generate_customers, inject_noise, paper_cfds
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema
from repro.repair import cost as cost_module
from repro.repair.cost import CostModel
from repro.repair.repairer import BatchRepairer, repair_quality


class TestRepairExample:
    def test_repair_removes_all_violations(self, customer_relation, customer_cfds):
        repair = BatchRepairer().repair(customer_relation, customer_cfds)
        assert repair.residual_violations == 0
        assert satisfies_all(repair.repaired, customer_cfds)

    def test_original_relation_untouched(self, customer_relation, customer_cfds):
        before = customer_relation.to_list()
        BatchRepairer().repair(customer_relation, customer_cfds)
        assert customer_relation.to_list() == before

    def test_changes_are_recorded_with_provenance(self, customer_relation, customer_cfds):
        repair = BatchRepairer().repair(customer_relation, customer_cfds)
        assert repair.changes
        for change in repair.changes:
            assert change.old_value != change.new_value
            assert change.reason  # the CFD that prompted the change
            assert change.cost >= 0
        assert repair.total_cost > 0

    def test_multi_tuple_violation_resolved_to_shared_value(
        self, customer_relation, customer_cfds
    ):
        repair = BatchRepairer().repair(customer_relation, customer_cfds)
        # Mike and Rick shared zip EH4 1DT with different streets; afterwards
        # they must agree.
        assert repair.repaired.value(0, "STR") == repair.repaired.value(1, "STR")

    def test_constant_violation_resolved(self, customer_relation, customer_cfds):
        repair = BatchRepairer().repair(customer_relation, customer_cfds)
        # Anna (CC=44, CNT=NL) must now satisfy phi4/phi3 one way or another.
        row = repair.repaired.get(4)
        assert not violating_tids(repair.repaired, customer_cfds)
        assert row["CNT"] == "UK" or row["CC"] != "44"

    def test_changed_cells_and_changes_for(self, customer_relation, customer_cfds):
        repair = BatchRepairer().repair(customer_relation, customer_cfds)
        for (tid, attribute), change in repair.changed_cells.items():
            assert change.tid == tid and change.attribute == attribute
        assert repair.changes_for(4) or repair.changes_for(0) or repair.changes_for(1)

    def test_clean_data_is_a_noop(self, customer_cfds):
        clean = generate_customers(60, seed=2)
        repair = BatchRepairer().repair(clean, customer_cfds)
        assert repair.is_noop()
        assert repair.total_cost == 0

    def test_to_dict(self, customer_relation, customer_cfds):
        repair = BatchRepairer().repair(customer_relation, customer_cfds)
        data = repair.to_dict()
        assert data["changes"] and "total_cost" in data


class TestCostModelInfluence:
    def test_protected_cell_is_not_chosen(self, customer_relation, customer_cfds):
        model = CostModel.uniform()
        # Declare Rick's street authoritative: the merge must move Mike's street.
        model.protect_cell(1, "STR")
        repair = BatchRepairer(cost_model=model).repair(customer_relation, customer_cfds)
        assert repair.repaired.value(1, "STR") == "Crichton St"
        assert repair.repaired.value(0, "STR") == "Crichton St"

    def test_attribute_weights_steer_constant_fix(self, customer_relation):
        # Only phi4 is enforced.  Making CNT expensive to change means the
        # cheaper fix for Anna is to change CC (breaking the pattern) rather
        # than setting CNT='UK'.
        phi4 = parse_cfd("customer: [CC='44'] -> [CNT='UK']", name="phi4")
        model = CostModel(attribute_weights={"CNT": 50.0})
        repair = BatchRepairer(cost_model=model).repair(customer_relation, [phi4])
        row = repair.repaired.get(4)
        assert row["CNT"] == "NL"
        assert row["CC"] != "44"
        assert satisfies_all(repair.repaired, [phi4])

    def test_default_weights_prefer_rhs_constant_fix(self, customer_relation):
        phi4 = parse_cfd("customer: [CC='44'] -> [CNT='UK']", name="phi4")
        repair = BatchRepairer().repair(customer_relation, [phi4])
        assert repair.repaired.get(4)["CNT"] == "UK"


class TestRepairQualityOnNoise:
    def test_swap_noise_mostly_recovered(self, customer_cfds):
        clean = generate_customers(200, seed=21)
        noise = inject_noise(clean, rate=0.03, seed=22, attributes=["CNT", "CITY", "CC"],
                             kinds=("swap",))
        repair = BatchRepairer().repair(noise.dirty, customer_cfds)
        quality = repair_quality(repair, clean, noise.dirty)
        assert quality["precision"] >= 0.5
        assert quality["recall"] >= 0.3
        assert 0.0 <= quality["f1"] <= 1.0

    def test_repair_reduces_violations_at_higher_noise(self, customer_cfds):
        clean = generate_customers(150, seed=31)
        noise = inject_noise(clean, rate=0.08, seed=32,
                             attributes=["CNT", "CITY", "STR", "CC"])
        before = len(violating_tids(noise.dirty, customer_cfds))
        repair = BatchRepairer().repair(noise.dirty, customer_cfds)
        after = len(violating_tids(repair.repaired, customer_cfds))
        assert after < before

    def test_quality_metrics_with_no_noise(self, customer_cfds):
        clean = generate_customers(50, seed=41)
        repair = BatchRepairer().repair(clean, customer_cfds)
        quality = repair_quality(repair, clean)
        assert quality["precision"] == 1.0
        assert quality["recall"] == 1.0
        assert quality["corrupted_cells"] == 0


class TestRestrictedRepair:
    def test_restrict_to_tids_only_changes_those_tuples(self, customer_relation, customer_cfds):
        repairer = BatchRepairer(restrict_to_tids=[4])
        repair = repairer.repair(customer_relation, customer_cfds)
        assert repair.changed_tids() <= {4}

    def test_restricted_repair_skips_unrelated_violations(self, customer_relation, customer_cfds):
        repairer = BatchRepairer(restrict_to_tids=[2])  # Joe is clean
        repair = repairer.repair(customer_relation, customer_cfds)
        assert repair.is_noop()


class TestRoundCost:
    """A repair round over N rows makes as many pattern-tuple calls as over a few.

    Violation collection tested each row against each pattern row through
    ``CFD.applies_to``, which projected the LHS pattern with
    ``PatternTuple.restrict`` per row.  The compiled matchers make the
    pattern-tuple calls a function of the CFDs and the violations alone.
    Counted calls pin it, not timings.
    """

    @staticmethod
    def _relation(customer_relation, filler):
        relation = customer_relation.copy()
        for index in range(filler):
            # clean tuples every CFD of the paper either skips or accepts
            relation.insert(
                {"NAME": f"n{index}", "CNT": "NL", "CITY": "AMS", "ZIP": f"z{index}",
                 "STR": f"s{index}", "CC": "31", "AC": "020"}
            )
        return relation

    def _pattern_calls(self, monkeypatch, relation, cfds):
        calls = {"restrict": 0, "value": 0}

        def counting(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(
                PatternTuple, name, counting(name, getattr(PatternTuple, name))
            )
        repair = BatchRepairer(max_iterations=1).repair(relation, cfds)
        monkeypatch.undo()
        assert repair.changes
        return calls

    def test_round_pattern_calls_do_not_grow_with_rows(
        self, monkeypatch, customer_relation
    ):
        small = self._pattern_calls(
            monkeypatch, self._relation(customer_relation, 10), paper_cfds()
        )
        large = self._pattern_calls(
            monkeypatch, self._relation(customer_relation, 500), paper_cfds()
        )
        assert large == small, (small, large)


class TestOnePricePerValuePair:
    """A repair prices each distinct pair of values once.

    The planner prices the same (old, new) pair for many cells and
    candidates; the edit distance behind it is memoised for the length of
    one repair call, never across calls.  Counted calls pin it.
    """

    def test_a_repair_prices_each_pair_once_and_the_next_starts_afresh(
        self, monkeypatch
    ):
        relation = inject_noise(
            generate_customers(120, seed=907), rate=0.08, seed=908,
            attributes=["CITY", "STR", "CNT"],
        ).dirty
        cfds = paper_cfds()
        calls = {}
        distance = cost_module.damerau_levenshtein

        def counting(left, right):
            calls[(left, right)] = calls.get((left, right), 0) + 1
            return distance(left, right)

        monkeypatch.setattr(cost_module, "damerau_levenshtein", counting)
        repairer = BatchRepairer()
        first = repairer.repair(relation, cfds)
        assert first.changes and calls
        assert set(calls.values()) == {1}
        priced = dict(calls)
        second = repairer.repair(relation, cfds)
        assert second.changes == first.changes
        assert calls == {pair: 2 for pair in priced}


class TestTermination:
    def test_iteration_cap_respected(self, customer_relation, customer_cfds):
        repair = BatchRepairer(max_iterations=1).repair(customer_relation, customer_cfds)
        assert repair.iterations == 1

    small_value = st.sampled_from(["a", "b", "c"])

    @given(
        rows=st.lists(
            st.fixed_dictionaries(
                {"CNT": small_value, "ZIP": small_value, "STR": small_value, "CC": small_value}
            ),
            min_size=2,
            max_size=10,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_property_repair_terminates_and_reduces_violations(self, rows):
        schema = RelationSchema.of("customer", ["CNT", "ZIP", "STR", "CC"])
        relation = Relation.from_rows(schema, rows)
        cfds = [
            parse_cfd("customer: [CNT=_, ZIP=_] -> [STR=_]"),
            parse_cfd("customer: [CC='a'] -> [CNT='b']"),
        ]
        before = len(violating_tids(relation, cfds))
        repair = BatchRepairer(max_iterations=15).repair(relation, cfds)
        after = len(violating_tids(repair.repaired, cfds))
        assert after <= before
        if repair.residual_violations == 0:
            assert after == 0
