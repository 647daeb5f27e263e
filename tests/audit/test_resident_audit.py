"""The backend-resident audit: oracle parity and zero working-store reads.

Property: with SQL detection on the audit runs entirely on the
storage backend — dirty rows from one ``row_fetch``, clean categories from
pushed-down applicability aggregates, the quality map's tid universe from
the catalog row count — and the resulting report is *identical* to the
native full-relation walk of a ``use_sql_detection=False`` system, for any
relation (NULL cells included) and any
multi-pattern tableau set.

The pins extend the ``ForbiddenReadBackend`` contract of detection and
repair to ``audit()``: no ``to_relation`` / ``get_row`` / ``iter_rows``
on any path, and the working :class:`Relation` itself may be absent while
the audit runs (the backend holds its own copy).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Semandaq, SemandaqConfig
from repro.core.parser import parse_cfd
from repro.datasets import generate_customers, inject_noise, paper_cfds
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema
from tests.doubles import ForbiddenReadBackend, ForbiddenRelation

ATTRIBUTES = ["A", "B", "C", "D"]

cell_value = st.sampled_from(["a", "b", None])
pattern_value = st.sampled_from(["_", "a", "b"])
row_strategy = st.fixed_dictionaries({name: cell_value for name in ATTRIBUTES})


def _draw_cfd(data, index):
    lhs = data.draw(
        st.lists(st.sampled_from(ATTRIBUTES), min_size=1, max_size=2, unique=True)
    )
    remaining = [name for name in ATTRIBUTES if name not in lhs]
    rhs = data.draw(
        st.lists(st.sampled_from(remaining), min_size=1, max_size=2, unique=True)
    )
    patterns = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        cells = []
        for side in (lhs, rhs):
            rendered = []
            for name in side:
                value = data.draw(pattern_value)
                rendered.append(f"{name}={value}" if value == "_" else f"{name}='{value}'")
            cells.append(", ".join(rendered))
        patterns.append(f"[{cells[0]}] -> [{cells[1]}]")
    return parse_cfd(f"r: {' ; '.join(patterns)}", name=f"cfd{index}")


def _audit(use_sql_detection, relation, cfds):
    system = Semandaq(
        config=SemandaqConfig(
            use_sql_detection=use_sql_detection,
            check_consistency_on_add=False,
        )
    )
    try:
        system.register_relation(relation.copy())
        system.add_cfds(cfds)
        return system.audit("r")
    finally:
        system.close()


@pytest.mark.usefixtures("plan_family")
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_resident_audit_matches_native_oracle(data):
    rows = data.draw(st.lists(row_strategy, min_size=1, max_size=12))
    cfds = [
        _draw_cfd(data, index)
        for index in range(data.draw(st.integers(min_value=1, max_value=3)))
    ]
    schema = RelationSchema.of("r", ATTRIBUTES)
    relation = Relation.from_rows(schema, rows)

    native = _audit(False, relation, cfds)
    resident = _audit(True, relation, cfds)

    assert resident.to_dict() == native.to_dict()
    assert (
        resident.tuple_classification.counts()
        == native.tuple_classification.counts()
    )
    assert (
        resident.attribute_classification.counts
        == native.attribute_classification.counts
    )
    assert resident.quality_map.boundaries == native.quality_map.boundaries
    assert resident.worst_attributes() == native.worst_attributes()


def _make_system(**config):
    system = Semandaq(config=SemandaqConfig(**config))
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


class TestResidentAuditPins:
    @pytest.mark.usefixtures("plan_family")
    def test_audit_ships_no_rows_out_of_the_backend(self):
        system = _make_system()
        _pin_backend(system)
        report = system.audit("customer")
        assert report.tuple_count == 60
        assert sum(report.pie_chart().values()) == 60
        assert sum(report.quality_map.histogram().values()) == 60
        assert report.dirty_tuple_count() > 0
        system.close()

    def test_resident_audit_counts_the_source_counter(self):
        system = _make_system(telemetry=True)
        system.audit("customer")
        assert system.metrics()["counters"]["audit.source_resident"] == 1
        system.close()

    def test_native_override_still_walks_the_relation(self):
        system = _make_system(use_sql_detection=False)
        native = system.audit("customer")
        resident = _make_system()
        try:
            assert resident.audit("customer").to_dict() == native.to_dict()
        finally:
            resident.close()
        system.close()


class TestAuditorNeverTouchesTheWorkingRelation:
    def test_audit_reads_the_backend_alone(self):
        system = _make_system()
        _pin_backend(system)
        system.detect("customer")  # sync + cache the report first
        real = system.database.relation("customer")
        system.database._relations["customer"] = ForbiddenRelation("customer")
        try:
            report = system.audit("customer")
        finally:
            system.database._relations["customer"] = real
        assert report.tuple_count == 60
        assert report.dirty_tuple_count() > 0
        system.close()
