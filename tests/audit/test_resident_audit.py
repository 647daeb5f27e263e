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

from repro import Semandaq
from repro.audit.metrics import MajorityTally
from repro.core.cfd import PatternMatcher
from repro.datasets import generate_customers, inject_noise, paper_cfds
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema
from tests.doubles import ForbiddenReadBackend, ForbiddenRelation
from tests.tableaux import draw_cfd

ATTRIBUTES = ["A", "B", "C", "D"]

cell_value = st.sampled_from(["a", "b", None])
row_strategy = st.fixed_dictionaries({name: cell_value for name in ATTRIBUTES})


def _audit(sqlite_config, use_sql_detection, relation, cfds):
    system = Semandaq(
        config=sqlite_config(
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
def test_resident_audit_matches_native_oracle(sqlite_config, data):
    rows = data.draw(st.lists(row_strategy, min_size=1, max_size=12))
    cfds = [
        draw_cfd(data, index, ATTRIBUTES)
        for index in range(data.draw(st.integers(min_value=1, max_value=3)))
    ]
    schema = RelationSchema.of("r", ATTRIBUTES)
    relation = Relation.from_rows(schema, rows)

    native = _audit(sqlite_config, False, relation, cfds)
    resident = _audit(sqlite_config, True, relation, cfds)

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


def _make_system(sqlite_config, **config):
    system = Semandaq(config=sqlite_config(**config))
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
    def test_audit_ships_no_rows_out_of_the_backend(self, sqlite_config):
        system = _make_system(sqlite_config)
        _pin_backend(system)
        report = system.audit("customer")
        assert report.tuple_count == 60
        assert sum(report.pie_chart().values()) == 60
        assert sum(report.quality_map.histogram().values()) == 60
        assert report.dirty_tuple_count() > 0
        system.close()

    def test_resident_audit_counts_the_source_counter(self, sqlite_config):
        system = _make_system(sqlite_config, telemetry=True)
        system.audit("customer")
        assert system.metrics()["counters"]["audit.source_resident"] == 1
        system.close()

    def test_each_verdict_is_decided_once(self, sqlite_config, monkeypatch):
        """One resident audit asks the majority tally once per (tuple, violation)."""
        system = _make_system(sqlite_config)
        report = system.detect("customer")
        asked = []
        agrees = MajorityTally.agrees

        def counting(tally, tid, position, majority):
            asked.append((tid, position))
            return agrees(tally, tid, position, majority)

        monkeypatch.setattr(MajorityTally, "agrees", counting)
        system.audit("customer")
        monkeypatch.undo()
        pairs = {
            (tid, position)
            for position, violation in enumerate(report.violations)
            if violation.is_multi
            for tid in violation.tids
        }
        assert pairs
        assert sorted(asked) == sorted(pairs)
        system.close()

    def test_applicability_is_decided_once_per_key(self, sqlite_config, monkeypatch):
        """The verified-clean arithmetic tests each constant-RHS sub once per LHS key."""
        system = _make_system(sqlite_config)
        report = system.detect("customer")
        decided = []
        applies_to_key = PatternMatcher.applies_to_key

        def counting(matcher, key):
            decided.append((matcher.pattern, tuple(key)))
            return applies_to_key(matcher, key)

        def forbidden(matcher, row):
            raise AssertionError("a row was tested against a matcher")

        monkeypatch.setattr(PatternMatcher, "applies_to_key", counting)
        monkeypatch.setattr(PatternMatcher, "applies_to", forbidden)
        system.audit("customer")
        monkeypatch.undo()
        # phi4's two constant-RHS subs share the LHS (CC): each distinct CC
        # value of a dirty tuple is decided once per sub
        dirty_keys = {
            (system.database.relation("customer").get(tid)["CC"],)
            for tid in report.dirty_tids()
        }
        assert len(decided) == len(set(decided)) == 2 * len(dirty_keys)
        system.close()

    def test_native_override_still_walks_the_relation(self, sqlite_config):
        system = _make_system(sqlite_config, use_sql_detection=False)
        native = system.audit("customer")
        resident = _make_system(sqlite_config)
        try:
            assert resident.audit("customer").to_dict() == native.to_dict()
        finally:
            resident.close()
        system.close()


class TestAuditorNeverTouchesTheWorkingRelation:
    def test_audit_reads_the_backend_alone(self, sqlite_config):
        system = _make_system(sqlite_config)
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
