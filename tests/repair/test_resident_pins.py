"""Zero working-store reads for backend-resident repair.

The detection pushdown is pinned by wrapping the storage backend in
:class:`~tests.doubles.ForbiddenReadBackend` (see
``tests/detection/test_batch_resident.py``).  These tests extend the same
contract to the repair pipeline: with SQL detection on the whole
``clean()`` walk — detect, repair planning, apply, post-detect — must never
ship rows out of the backend (``to_relation`` / ``get_row`` / ``iter_rows``).

The pin goes further: the working :class:`Relation` itself is replaced by
a :class:`~tests.doubles.ForbiddenRelation` while ``repair()`` plans,
proving the planner reads *only* the backend.
"""

import pytest

from repro import Semandaq, SemandaqConfig
from repro.datasets import generate_customers, inject_noise, paper_cfds
from tests.doubles import ForbiddenReadBackend, ForbiddenRelation

def _make_system():
    system = Semandaq(config=SemandaqConfig())
    clean = generate_customers(60, seed=401)
    dirty = inject_noise(
        clean, rate=0.08, seed=402, attributes=["CITY", "STR", "CNT"]
    ).dirty
    system.register_relation(dirty)
    system.add_cfds(paper_cfds())
    return system


def _pin_backend(system):
    wrapped = ForbiddenReadBackend(system.backend)
    system.backend = wrapped
    system.detector.backend = wrapped
    return wrapped


class TestResidentRepairPins:
    def test_pin_is_live(self):
        system = _make_system()
        wrapped = _pin_backend(system)
        with pytest.raises(AssertionError, match="read the working store"):
            wrapped.to_relation("customer")
        system.close()

    @pytest.mark.usefixtures("plan_family")
    def test_clean_ships_no_rows_out_of_the_backend(self):
        system = _make_system()
        _pin_backend(system)
        summary = system.clean("customer")
        assert summary["cells_changed"] > 0
        assert summary["violations_after"] <= summary["violations_before"]
        assert system._repairs["customer"].source == "backend"
        system.close()

    def test_apply_repair_ships_no_rows_out_of_the_backend(self):
        system = _make_system()
        _pin_backend(system)
        before = system.detect("customer").total_violations()
        repair = system.repair("customer")
        assert repair.source == "backend"
        applied = system.apply_repair("customer")
        after = system.detect("customer").total_violations()
        assert after <= before
        # the replacement is a full relation, not the planner's partial view
        assert len(applied) == 60
        system.close()


class TestPlannerNeverTouchesTheWorkingRelation:
    def test_repair_plans_from_the_backend_alone(self):
        system = _make_system()
        _pin_backend(system)
        real = system.database.relation("customer")
        system.database._relations["customer"] = ForbiddenRelation("customer")
        try:
            repair = system.repair("customer")
        finally:
            system.database._relations["customer"] = real
        assert repair.source == "backend"
        assert repair.changes
        # with the real relation back, the planned repair applies cleanly
        system.apply_repair("customer")
        assert system.detect("customer").total_violations() == 0
        system.close()
