"""Facade behaviour of the repair data source.

With SQL detection on the facade plans every repair over the
backend-resident source; ``use_sql_detection=False`` walks the working
relation instead, the oracle the resident plan must match change for
change.
"""

from repro import Semandaq
from repro.datasets import generate_customers, inject_noise, paper_cfds


def _system(sqlite_config, **config_kwargs):
    system = Semandaq(config=sqlite_config(**config_kwargs))
    dirty = inject_noise(
        generate_customers(50, seed=421),
        rate=0.08,
        seed=422,
        attributes=["CITY", "STR", "CNT"],
    ).dirty
    system.register_relation(dirty)
    system.add_cfds(paper_cfds())
    return system


def test_auto_plans_resident_and_native_forces_the_oracle(sqlite_config):
    resident = _system(sqlite_config, telemetry=True)
    oracle = _system(sqlite_config, use_sql_detection=False, telemetry=True)
    try:
        first = resident.repair("customer")
        second = oracle.repair("customer")
        assert first.source == "backend"
        assert second.source == "native"
        assert [
            (c.tid, c.attribute, c.old_value, c.new_value) for c in first.changes
        ] == [(c.tid, c.attribute, c.old_value, c.new_value) for c in second.changes]
        assert resident.metrics()["counters"]["repair.source_resident"] == 1
        assert "repair.source_resident" not in oracle.metrics()["counters"]
        assert (
            oracle.metrics()["counters"]["repair.cells_changed"]
            == len(second.changes)
        )
    finally:
        resident.close()
        oracle.close()


def test_native_detection_disables_the_resident_source(sqlite_config):
    system = _system(sqlite_config, use_sql_detection=False)
    try:
        assert system.repair("customer").source == "native"
    finally:
        system.close()


def test_review_hydrates_a_resident_repair(sqlite_config):
    system = _system(sqlite_config, backend="sqlite")
    try:
        assert system.repair("customer").source == "backend"
        review = system.review("customer")
        # the review works over the full relation, not the partial view
        assert len(review.working) == 50
        reviewed = review.finalise()
        applied = system.apply_repair("customer", reviewed)
        assert applied.to_list() == reviewed.to_list()
        assert system.detect("customer").total_violations() == 0
    finally:
        system.close()


def test_resident_clean_matches_native_clean(sqlite_config):
    resident = _system(sqlite_config, backend="sqlite")
    native = _system(sqlite_config, backend="sqlite", use_sql_detection=False)
    try:
        left = resident.clean("customer")
        right = native.clean("customer")
        for key in (
            "violations_before",
            "cells_changed",
            "repair_cost",
            "violations_after",
            "dirty_tuples_after",
        ):
            assert left[key] == right[key], key
        assert resident.database.relation("customer").to_list() == (
            native.database.relation("customer").to_list()
        )
    finally:
        resident.close()
        native.close()
