"""Tests for incremental repair (IncRepair)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Semandaq
from repro.core.parser import parse_cfd
from repro.core.satisfaction import satisfies_all, violating_tids
from repro.datasets import generate_customers, paper_cfds
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema
from repro.errors import RepairError
from repro.monitor.updates import Update
from repro.repair.incremental import IncrementalRepairer, remaining_dirty_tids
from repro.repair.repairer import BatchRepairer


@pytest.fixture
def cleansed_customers(customer_cfds):
    """A relation that already satisfies the paper's CFDs."""
    return generate_customers(80, seed=13)


def _applied(relation, repair):
    """A copy of the full ``relation`` with the repair's changes applied.

    An incremental repair's own ``repaired`` relation holds only the tuples
    the planner saw, so whole-relation checks run on this instead.
    """
    repaired = relation.copy()
    for change in repair.changes:
        repaired.update(change.tid, {change.attribute: change.new_value})
    return repaired


class TestRepairUpdates:
    def test_only_updated_tuples_are_modified(self, cleansed_customers, customer_cfds):
        relation = cleansed_customers
        # Corrupt one tuple's country so it clashes with its country code group.
        relation.update(0, {"CNT": "XX"})
        repairer = IncrementalRepairer()
        repair = repairer.repair_updates(relation, customer_cfds, [0])
        assert repair.changed_tids() <= {0}
        repairer.verify_untouched(repair, protected_tids=set(relation.tids()) - {0})

    def test_updated_tuple_converges_to_existing_value(self, cleansed_customers, customer_cfds):
        relation = cleansed_customers
        original_country = relation.value(0, "CNT")
        relation.update(0, {"CNT": "XX"})
        repair = IncrementalRepairer().repair_updates(relation, customer_cfds, [0])
        repaired = _applied(relation, repair)
        assert repaired.value(0, "CNT") == original_country
        assert satisfies_all(repaired, customer_cfds)

    def test_clean_update_is_noop(self, cleansed_customers, customer_cfds):
        relation = cleansed_customers
        relation.update(0, {"NAME": "Renamed Person"})  # NAME is unconstrained
        repair = IncrementalRepairer().repair_updates(relation, customer_cfds, [0])
        assert repair.is_noop()

    def test_unknown_tids_are_ignored(self, cleansed_customers, customer_cfds):
        repair = IncrementalRepairer().repair_updates(cleansed_customers, customer_cfds, [9999])
        assert repair.is_noop()


class TestInsertAndRepair:
    def test_inserted_violating_row_is_fixed(self, cleansed_customers, customer_cfds):
        relation = cleansed_customers
        template = relation.get(0)
        bad_row = dict(template)
        bad_row["STR"] = "Completely Different Street"
        repairer = IncrementalRepairer()
        new_tids, repair = repairer.insert_and_repair(relation, customer_cfds, [bad_row])
        assert len(new_tids) == 1
        assert repair.changed_tids() <= set(new_tids)
        assert not remaining_dirty_tids(_applied(relation, repair), customer_cfds)

    def test_multiple_inserts(self, cleansed_customers, customer_cfds):
        relation = cleansed_customers
        template = relation.get(0)
        rows = []
        for street in ("Street A", "Street B"):
            row = dict(template)
            row["STR"] = street
            rows.append(row)
        new_tids, repair = IncrementalRepairer().insert_and_repair(
            relation, customer_cfds, rows
        )
        assert len(new_tids) == 2
        assert repair.changed_tids() <= set(new_tids)
        assert satisfies_all(_applied(relation, repair), customer_cfds)


class TestVerifyUntouched:
    def test_detects_protected_modifications(self, customer_relation, customer_cfds):
        repair = BatchRepairer().repair(customer_relation, customer_cfds)
        repairer = IncrementalRepairer()
        with pytest.raises(RepairError):
            repairer.verify_untouched(repair, protected_tids=repair.changed_tids())

    def test_passes_when_nothing_protected_changed(self, customer_relation, customer_cfds):
        repair = BatchRepairer().repair(customer_relation, customer_cfds)
        IncrementalRepairer().verify_untouched(repair, protected_tids=[999])


class TestIncrementalVsBatchAgreement:
    def test_both_restore_consistency(self, cleansed_customers, customer_cfds):
        relation = cleansed_customers
        relation.update(3, {"CITY": "WRONGCITY"})
        incremental = IncrementalRepairer().repair_updates(relation, customer_cfds, [3])
        batch = BatchRepairer().repair(relation, customer_cfds)
        assert satisfies_all(_applied(relation, incremental), customer_cfds)
        assert satisfies_all(batch.repaired, customer_cfds)
        # The incremental repair touches at most the updated tuple; batch may
        # touch more (it is free to change the other side of the conflict).
        assert incremental.changed_tids() <= {3}


# -- the 1:1 tie between an updated and a trusted value ---------------------------

PHI1 = parse_cfd("customer: [CNT=_, ZIP=_] -> [CITY=_]", name="phi1")


def _tie_relation(*cities):
    """``[CNT, ZIP] -> [CITY]`` groups: LS1 holds ``cities``, EH1 one tuple."""
    schema = RelationSchema.of("customer", ["NAME", "CNT", "ZIP", "CITY"])
    rows = [
        {"NAME": f"n{index}", "CNT": "UK", "ZIP": "LS1", "CITY": city}
        for index, city in enumerate(cities)
    ]
    rows.append({"NAME": "e", "CNT": "UK", "ZIP": "EH1", "CITY": "Edinburgh"})
    return Relation.from_rows(schema, rows)


class TestTrustedValueTie:
    """A trusted ``Leeds`` against an updated city, in both sort orders.

    The update costs as much to undo as the trusted value costs to
    overwrite, so the class value is a cost tie.  Only the updated tuple
    may change, so the repair must take the trusted value whichever city
    sorts first.
    """

    @pytest.mark.parametrize("city", ["Aberdeen", "York"])
    def test_updated_city_takes_the_trusted_value(self, city):
        relation = _tie_relation("Leeds", "Leeds")
        relation.update(1, {"CITY": city})
        repair = IncrementalRepairer().repair_updates(relation, [PHI1], [1])
        changes = [(c.tid, c.attribute, c.old_value, c.new_value) for c in repair.changes]
        assert changes == [(1, "CITY", city, "Leeds")]
        assert repair.residual_violations == 0
        assert repair.iterations == 2
        repaired = _applied(relation, repair)
        assert satisfies_all(repaired, [PHI1])
        assert repaired.value(0, "CITY") == "Leeds"

    @pytest.mark.parametrize("use_sql", [True, False], ids=["sql", "native"])
    @pytest.mark.parametrize("city", ["Aberdeen", "York"])
    def test_monitored_update_is_repaired(self, sqlite_config, city, use_sql):
        system = Semandaq(sqlite_config(use_sql_detection=use_sql))
        try:
            system.register_relation(_tie_relation("Leeds", "Leeds"))
            system.add_cfd(PHI1)
            system.monitor("customer", cleansed=True)
            system.apply_updates("customer", [Update.modify(1, {"CITY": city})])
            relation = system.database.relation("customer")
            assert system.monitor("customer").current_report().is_clean()
            assert system.detect("customer").is_clean()
            assert relation.value(0, "CITY") == "Leeds"  # the protected cell
            assert relation.value(1, "CITY") == "Leeds"
            assert dict(system.backend.iter_rows("customer")) == dict(relation.rows())
        finally:
            system.close()

    def test_disagreeing_trusted_values_stop_after_one_round(self):
        # the trusted members disagree, so no value the updated tuple can
        # take fixes the group; a round that changes nothing ends the repair
        relation = _tie_relation("Leeds", "York")
        tid = relation.insert(
            {"NAME": "u", "CNT": "UK", "ZIP": "LS1", "CITY": "Leeds"}
        )
        repair = IncrementalRepairer().repair_updates(relation, [PHI1], [tid])
        assert repair.iterations == 1
        assert repair.residual_violations == 1
        assert repair.is_noop()

    def test_disagreeing_trusted_values_take_the_cheaper_one(self):
        relation = _tie_relation("Leeds", "York")
        tid = relation.insert(
            {"NAME": "u", "CNT": "UK", "ZIP": "LS1", "CITY": "Aberdeen"}
        )
        repair = IncrementalRepairer().repair_updates(relation, [PHI1], [tid])
        assert [(c.tid, c.new_value) for c in repair.changes] == [(tid, "Leeds")]
        assert repair.iterations == 2
        assert repair.residual_violations == 1


#: attributes no paper CFD has on its LHS
NON_LHS_ATTRIBUTES = ["NAME", "CITY", "STR", "AC"]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_non_lhs_modifies_are_always_repaired(data):
    """On a clean relation, modifies that move no CFD's LHS always repair to zero.

    Every violating group then holds updated members plus trusted ones that
    agree, so the updated members can always take the trusted value.  This
    does not hold for arbitrary tableaux: a constant and a variable CFD can
    pull the same updated cell towards different values.
    """
    relation = generate_customers(
        data.draw(st.integers(min_value=20, max_value=60)),
        seed=data.draw(st.integers(min_value=0, max_value=10_000)),
    )
    cfds = paper_cfds()
    updated = set()
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        tid = data.draw(st.sampled_from(relation.tids()))
        attribute = data.draw(st.sampled_from(NON_LHS_ATTRIBUTES))
        value = data.draw(
            st.sampled_from(relation.distinct_values(attribute))
            | st.text(alphabet="ABC", min_size=1, max_size=2)
        )
        relation.update(tid, {attribute: value})
        updated.add(tid)
    repair = IncrementalRepairer().repair_updates(relation, cfds, updated)
    assert repair.residual_violations == 0
    assert repair.changed_tids() <= updated
    assert not violating_tids(_applied(relation, repair), cfds)


class TestIncrementalTelemetry:
    def _system(self, sqlite_config, *cities):
        system = Semandaq(sqlite_config(telemetry=True))
        system.register_relation(_tie_relation(*cities))
        system.add_cfd(PHI1)
        system.monitor("customer", cleansed=True)
        return system

    def test_working_rows_and_residual_are_counted(self, sqlite_config):
        system = self._system(sqlite_config, "Leeds", "Leeds")
        try:
            system.apply_updates("customer", [Update.modify(1, {"CITY": "Aberdeen"})])
            counters = system.metrics()["counters"]
            assert counters["repair.incremental_rows"] == 2  # tuple and partner
            assert counters["repair.incremental_residual"] == 0
        finally:
            system.close()

    def test_a_residual_violation_is_counted(self, sqlite_config):
        system = self._system(sqlite_config, "Leeds", "York")
        try:
            row = {"NAME": "u", "CNT": "UK", "ZIP": "LS1", "CITY": "Leeds"}
            system.apply_updates("customer", [Update.insert(row)])
            counters = system.metrics()["counters"]
            assert counters["repair.incremental_rows"] == 3
            assert counters["repair.incremental_residual"] == 1
            assert system.monitor("customer").current_report().total_violations() == 1
        finally:
            system.close()
