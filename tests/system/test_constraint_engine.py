"""Tests for the constraint engine."""

import pytest

from repro.core.parser import parse_cfd
from repro.datasets import generate_customers, paper_cfds
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.types import AttributeDef, DataType, RelationSchema
from repro.errors import CfdSchemaError, InconsistentCfdsError
from repro.system.constraint_engine import ConstraintEngine


@pytest.fixture
def engine(customer_database):
    return ConstraintEngine(customer_database)


class TestRegistration:
    def test_add_cfd_and_lookup(self, engine, customer_cfds):
        added = engine.add_cfd(customer_cfds[0], name="phi1")
        assert engine.get("phi1") is added
        assert len(engine) == 1

    def test_add_text(self, engine):
        cfd = engine.add_text("customer: [CC='44'] -> [CNT='UK']")
        assert cfd.name == "cfd1"
        assert engine.cfds("customer") == [cfd]

    def test_add_text_with_default_relation(self, engine):
        cfd = engine.add_text("[CC=_] -> [CNT=_]", default_relation="customer")
        assert cfd.relation == "customer"

    def test_unknown_relation_rejected(self, engine):
        with pytest.raises(CfdSchemaError):
            engine.add_text("orders: [A=_] -> [B=_]")

    def test_unknown_attribute_rejected(self, engine):
        with pytest.raises(CfdSchemaError):
            engine.add_text("customer: [NOPE=_] -> [CNT=_]")

    def test_constants_typed_by_the_schema(self):
        database = Database()
        database.add_relation(
            Relation(
                RelationSchema(
                    "m", [AttributeDef("A", DataType.INTEGER), AttributeDef("B")]
                )
            )
        )
        engine = ConstraintEngine(database)
        cfd = engine.add_text("m: [A='5'] -> [B='x']")
        assert cfd.patterns[0].value("A").constant == 5
        assert engine.get(cfd.identifier) is cfd
        with pytest.raises(CfdSchemaError):
            engine.add_text("m: [A='five'] -> [B='x']")

    def test_inconsistent_addition_rejected(self, engine):
        engine.add_text("customer: [CC=_] -> [CNT='UK']")
        with pytest.raises(InconsistentCfdsError):
            engine.add_text("customer: [CC=_] -> [CNT='US']")
        assert len(engine) == 1

    def test_consistency_check_can_be_disabled(self, customer_database):
        engine = ConstraintEngine(customer_database, check_consistency_on_add=False)
        engine.add_text("customer: [CC=_] -> [CNT='UK']")
        engine.add_text("customer: [CC=_] -> [CNT='US']")
        assert len(engine) == 2
        assert not engine.consistency("customer").consistent

    def test_remove_and_clear(self, engine, customer_cfds):
        engine.add_many(customer_cfds)
        engine.remove("phi1")
        assert len(engine) == 3
        engine.clear()
        assert len(engine) == 0

    def test_tableaux_stored_relationally(self, engine, customer_cfds):
        engine.add_cfd(customer_cfds[3], name="phi4")
        assert engine.metadata.has_relation("tableau_phi4")
        assert len(engine.metadata.relation("tableau_phi4")) == 2

    def test_describe(self, engine, customer_cfds):
        engine.add_many(customer_cfds)
        described = {entry["id"]: entry for entry in engine.describe()}
        assert described["phi4"]["constant"]
        assert described["phi1"]["plain_fd"]
        assert described["phi2"]["patterns"] == 1


class TestAnalysis:
    def test_consistency_and_conflicts(self, engine, customer_cfds):
        engine.add_many(customer_cfds)
        assert engine.consistency("customer").consistent
        assert engine.conflicts("customer") == []

    def test_redundancy_and_cover(self, engine):
        engine.add_text("customer: [CNT=_, ZIP=_] -> [STR=_]")
        engine.add_text("customer: [CNT='UK', ZIP=_] -> [STR=_]")
        redundancy = engine.redundancy("customer")
        assert any(entry["implied_by_rest"] for entry in redundancy)
        cover = engine.cover("customer")
        assert len(cover) == 1

    def test_tableau_statistics(self, engine, customer_cfds):
        engine.add_many(customer_cfds)
        stats = engine.tableau_statistics()
        assert stats["cfds"] == 4
        assert stats["pattern_tuples"] == 5  # phi4 has two pattern tuples


class TestDiscoveryIntegration:
    def test_discover_without_registering(self, customer_database):
        engine = ConstraintEngine(customer_database)
        reference = generate_customers(100, seed=51)
        discovered = engine.discover_from(reference, min_support=8, max_lhs_size=1)
        assert discovered
        assert len(engine) == 0

    def test_discover_and_register(self, customer_database):
        engine = ConstraintEngine(customer_database)
        reference = generate_customers(100, seed=52)
        registered = engine.discover_from(
            reference, min_support=8, max_lhs_size=1, register=True
        )
        assert registered
        assert len(engine) == len(registered)
        assert engine.consistency("customer").consistent
