"""End-to-end integration tests across datasets and components.

Every system is built through the ``sqlite_config`` fixture, so
``SEMANDAQ_SQLITE_MODE=file`` runs these workflows on file-backed stores,
and each is closed when its test ends.
"""

import pytest

from repro import Semandaq
from repro.core.satisfaction import satisfies_all
from repro.datasets import (
    generate_hospital,
    generate_orders,
    hospital_cfds,
    inject_noise,
    orders_cfds,
)
from repro.monitor.updates import Update
from repro.repair.repairer import repair_quality


class TestHospitalWorkflow:
    def test_detect_audit_repair_on_hospital_data(self, sqlite_config):
        clean = generate_hospital(250, seed=101)
        noise = inject_noise(
            clean, rate=0.03, seed=102,
            attributes=["STATE", "CITY", "MEASURE_NAME", "CONDITION"], kinds=("swap",),
        )
        with Semandaq(sqlite_config()) as semandaq:
            semandaq.register_relation(noise.dirty)
            semandaq.add_cfds(hospital_cfds())
            report = semandaq.detect("hospital")
            assert not report.is_clean()
            audit = semandaq.audit("hospital")
            assert audit.dirty_percentage() > 0
            repair = semandaq.repair("hospital")
            quality = repair_quality(repair, clean, noise.dirty)
            assert quality["precision"] > 0.5
            semandaq.apply_repair("hospital")
            assert semandaq.detect("hospital").total_violations() < report.total_violations()

    def test_discovery_recovers_hospital_dependencies(self, sqlite_config):
        reference = generate_hospital(200, seed=103)
        with Semandaq(sqlite_config()) as semandaq:
            semandaq.register_relation(reference)
            discovered = semandaq.discover_cfds(
                reference, register=False, min_support=10, max_lhs_size=1,
                include_constant=False,
            )
        fds = {(cfd.lhs, cfd.rhs) for cfd in discovered}
        assert (("MEASURE_CODE",), ("MEASURE_NAME",)) in fds
        assert (("ZIP",), ("STATE",)) in fds


class TestOrdersWorkflow:
    def test_monitor_keeps_order_feed_clean(self, sqlite_config):
        clean = generate_orders(200, seed=111)
        with Semandaq(sqlite_config()) as semandaq:
            semandaq.register_relation(clean)
            semandaq.add_cfds(orders_cfds())
            assert semandaq.detect("orders").is_clean()

            monitor = semandaq.monitor("orders", cleansed=True)
            bad_order = dict(clean.get(0))
            bad_order["ORDER_ID"] = "O999999"
            bad_order["CURRENCY"] = "XXX"  # clashes with COUNTRY -> CURRENCY
            monitor.apply_batch([Update.insert(bad_order)])
            relation = semandaq.database.relation("orders")
            assert satisfies_all(relation, orders_cfds())
            assert monitor.summary()["incremental_repairs"] == 1

    def test_constant_cfd_violations_detected_per_country(self, sqlite_config):
        clean = generate_orders(150, seed=112)
        dirty = inject_noise(clean, rate=0.05, seed=113, attributes=["CURRENCY"], kinds=("swap",)).dirty
        with Semandaq(sqlite_config()) as semandaq:
            semandaq.register_relation(dirty)
            semandaq.add_cfds(orders_cfds())
            report = semandaq.detect("orders")
        violated = {v.cfd_id for v in report.violations}
        assert "ord1" in violated  # COUNTRY -> CURRENCY


class TestConfigurationMatrix:
    @pytest.mark.parametrize("use_sql", [True, False])
    @pytest.mark.parametrize("strategy", ["linear", "quantile"])
    def test_pipeline_under_different_configurations(self, sqlite_config, use_sql, strategy):
        clean = generate_orders(100, seed=121)
        dirty = inject_noise(clean, rate=0.05, seed=122, attributes=["CURRENCY", "REGION"]).dirty
        config = sqlite_config(use_sql_detection=use_sql, quality_strategy=strategy)
        with Semandaq(config) as semandaq:
            semandaq.register_relation(dirty)
            semandaq.add_cfds(orders_cfds())
            summary = semandaq.clean("orders")
        assert summary["violations_after"] <= summary["violations_before"]
