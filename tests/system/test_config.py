"""Tests for system configuration validation."""

import pytest

from repro.errors import ConfigurationError
from repro.system.config import SemandaqConfig


class TestSemandaqConfig:
    def test_defaults_are_valid(self):
        SemandaqConfig().validate()

    def test_invalid_iterations(self):
        with pytest.raises(ConfigurationError):
            SemandaqConfig(repair_max_iterations=0).validate()

    def test_invalid_majority(self):
        with pytest.raises(ConfigurationError):
            SemandaqConfig(audit_majority=1.0).validate()
        with pytest.raises(ConfigurationError):
            SemandaqConfig(audit_majority=-0.1).validate()

    def test_invalid_quality_levels(self):
        with pytest.raises(ConfigurationError):
            SemandaqConfig(quality_levels=1).validate()

    def test_invalid_strategy(self):
        with pytest.raises(ConfigurationError):
            SemandaqConfig(quality_strategy="rainbow").validate()

    def test_invalid_attribute_weight(self):
        with pytest.raises(ConfigurationError):
            SemandaqConfig(attribute_weights={"A": 0}).validate()

    def test_invalid_backend(self):
        with pytest.raises(ConfigurationError):
            SemandaqConfig(backend="oracle").validate()

    def test_invalid_incremental_mode(self):
        with pytest.raises(ConfigurationError):
            SemandaqConfig(incremental_mode="psychic").validate()

    def test_incremental_modes_are_valid(self):
        SemandaqConfig(incremental_mode="native").validate()
        SemandaqConfig(incremental_mode="sql_delta").validate()

    def test_sqlite_is_the_default_backend(self):
        assert SemandaqConfig().backend == "sqlite"
        SemandaqConfig(backend="sqlite", backend_options={"path": ":memory:"}).validate()

    def test_memory_backend_is_gone(self):
        with pytest.raises(ConfigurationError, match="available: sqlite"):
            SemandaqConfig(backend="memory").validate()

    def test_serving_knobs_are_valid(self):
        SemandaqConfig(pool_size=0).validate()
        SemandaqConfig(pool_size=8, serve_threads=2, pool_timeout=1.5).validate()
        SemandaqConfig(pool_size=None).validate()

    def test_invalid_pool_size(self):
        with pytest.raises(ConfigurationError):
            SemandaqConfig(pool_size=-1).validate()

    def test_invalid_serve_threads(self):
        with pytest.raises(ConfigurationError):
            SemandaqConfig(serve_threads=0).validate()

    def test_invalid_pool_timeout(self):
        with pytest.raises(ConfigurationError):
            SemandaqConfig(pool_timeout=0.0).validate()

    def test_custom_valid_config(self):
        SemandaqConfig(
            use_sql_detection=False,
            repair_max_iterations=3,
            audit_majority=0.8,
            quality_levels=3,
            quality_strategy="quantile",
            attribute_weights={"CNT": 2.0},
        ).validate()
