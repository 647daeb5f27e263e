"""The candidate repair is applied only while it is current, the same way on both paths.

A candidate repair lives on the cached report it was planned from, so any
change that makes the report stale makes the repair stale too, and
``apply_repair()`` refuses it with the same error on the SQL and the native
system.  Re-detecting an unchanged relation keeps the candidate.  A new
monitor starts in repair mode only after a repair was applied.
"""

import pytest

from repro import Semandaq
from repro.datasets import (
    generate_customers,
    generate_hospital,
    generate_orders,
    hospital_cfds,
    inject_noise,
    orders_cfds,
    paper_cfds,
)
from repro.engine.csvio import dump_csv
from repro.errors import ConfigurationError
from repro.monitor.updates import Update

MODES = pytest.mark.parametrize("use_sql", [True, False], ids=["sql", "native"])


def _dirty(size=200, seed=1):
    return inject_noise(
        generate_customers(size, seed=seed), rate=0.1, seed=seed + 1, attributes=["CITY"]
    ).dirty


def _system(sqlite_config, use_sql):
    system = Semandaq(sqlite_config(use_sql_detection=use_sql))
    system.register_relation(_dirty())
    system.add_cfds(paper_cfds())
    return system


def _cells(relation):
    return sorted(relation.rows())


def _an_update(system):
    tid = system.database.relation("customer").tids()[0]
    return [Update.modify(tid, {"STR": "A Changed Street"})]


#: each way the relation or its CFDs change after repair(); ``held`` is a
#: monitor built before the repair
CHANGES = {
    "apply_updates": lambda system, held: system.apply_updates(
        "customer", _an_update(system)
    ),
    "held_monitor_batch": lambda system, held: held.apply_batch(_an_update(system)),
    "add_cfd": lambda system, held: system.add_cfd("customer: [ZIP=_] -> [CNT=_]"),
    "remove_cfd": lambda system, held: system.constraints.remove(
        system.constraints.cfds("customer")[0].identifier
    ),
    "mark_backend_stale": lambda system, held: system.mark_backend_stale("customer"),
    "replace": lambda system, held: system.load_csv(
        dump_csv(_dirty(seed=7)), "customer", infer_types=False
    ),
}


class TestAStaleRepairIsRefused:
    @MODES
    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_a_change_after_repair_makes_it_stale(self, sqlite_config, use_sql, change):
        system = _system(sqlite_config, use_sql)
        try:
            held = system.monitor("customer")
            assert system.repair("customer").changes
            CHANGES[change](system, held)
            before = _cells(system.database.relation("customer"))
            with pytest.raises(ConfigurationError, match="call repair"):
                system.apply_repair("customer")
            assert _cells(system.database.relation("customer")) == before
            # a fresh candidate applies
            system.repair("customer")
            applied = system.apply_repair("customer")
            assert sorted(system.backend.iter_rows("customer")) == _cells(applied)
        finally:
            system.close()

    def test_updates_between_repair_and_apply_give_one_answer(self, sqlite_config):
        # a stale candidate must neither bring the deleted tuple back nor
        # revert the modify, on either system
        outcomes = []
        for use_sql in (True, False):
            system = _system(sqlite_config, use_sql)
            try:
                changed = sorted(system.repair("customer").changed_tids())
                system.apply_updates(
                    "customer",
                    [
                        Update.delete(changed[0]),
                        Update.modify(changed[1], {"STR": "A Changed Street"}),
                    ],
                )
                with pytest.raises(ConfigurationError, match="call repair"):
                    system.apply_repair("customer")
                relation = system.database.relation("customer")
                assert len(relation) == 199
                assert relation.get(changed[1])["STR"] == "A Changed Street"
                outcomes.append(_cells(relation))
            finally:
                system.close()
        assert outcomes[0] == outcomes[1]


class TestACurrentRepairApplies:
    @MODES
    def test_re_detecting_keeps_the_candidate(self, sqlite_config, use_sql):
        system = _system(sqlite_config, use_sql)
        try:
            repair = system.repair("customer")
            system.detect("customer")
            system.last_report("customer")
            applied = system.apply_repair("customer")
            for change in repair.changes:
                assert applied.get(change.tid)[change.attribute] == change.new_value
            assert sorted(system.backend.iter_rows("customer")) == _cells(applied)
            assert system.detect("customer").total_violations() == 0
            # applying took the candidate: a second apply needs a new one
            with pytest.raises(ConfigurationError, match="call repair"):
                system.apply_repair("customer")
        finally:
            system.close()

    @MODES
    def test_review_reviews_the_current_candidate(self, sqlite_config, use_sql):
        system = _system(sqlite_config, use_sql)
        try:
            repair = system.repair("customer")
            review = system.review("customer")
            assert review.modified_cells() == repair.changes
            assert len(review.working) == 200
            applied = system.apply_repair("customer", review.finalise())
            assert sorted(system.backend.iter_rows("customer")) == _cells(applied)
        finally:
            system.close()

    @pytest.mark.parametrize(
        "workload",
        [
            lambda: (_dirty(300, seed=11), paper_cfds()),
            lambda: (
                inject_noise(generate_hospital(300, seed=3), rate=0.05, seed=4).dirty,
                hospital_cfds(),
            ),
            lambda: (
                inject_noise(
                    generate_orders(300, seed=5), rate=0.05, seed=6,
                    attributes=["CUST_NAME", "COUNTRY", "CURRENCY", "REGION"],
                ).dirty,
                orders_cfds(),
            ),
        ],
        ids=["customer", "hospital", "orders"],
    )
    def test_a_native_repair_replayed_is_its_repaired_relation(
        self, sqlite_config, workload
    ):
        relation, cfds = workload()
        system = Semandaq(sqlite_config(use_sql_detection=False))
        try:
            system.register_relation(relation.copy())
            system.add_cfds(cfds)
            repair = system.repair(relation.name)
            assert repair.changes
            applied = system.apply_repair(relation.name)
            assert applied.to_list() == repair.repaired.to_list()
        finally:
            system.close()


class TestNewMonitorMode:
    @MODES
    def test_an_unapplied_candidate_leaves_a_new_monitor_detecting(
        self, sqlite_config, use_sql
    ):
        system = _system(sqlite_config, use_sql)
        try:
            system.repair("customer")
            assert system.monitor("customer").summary()["mode"] == "detect"
        finally:
            system.close()

    @MODES
    @pytest.mark.parametrize("reviewed", [False, True], ids=["candidate", "reviewed"])
    def test_an_applied_repair_starts_a_new_monitor_repairing(
        self, sqlite_config, use_sql, reviewed
    ):
        system = _system(sqlite_config, use_sql)
        try:
            if reviewed:
                system.apply_repair("customer", system.review("customer").finalise())
            else:
                system.repair("customer")
                system.apply_repair("customer")
            assert system.monitor("customer").summary()["mode"] == "repair"
        finally:
            system.close()
