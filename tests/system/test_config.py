"""Tests for system configuration validation."""

import inspect
import threading

import pytest

from repro import Semandaq
from repro.backends import SqliteBackend
from repro.backends.pool import PoolTimeoutError
from repro.errors import BackendError, ConfigurationError
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


class TestBackendOptions:
    """``backend_options`` are SqliteBackend's keyword arguments but the pool's."""

    def test_unknown_option_is_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            SemandaqConfig(backend_options={"bogus": 1}).validate()
        with pytest.raises(ConfigurationError, match="bogus"):
            Semandaq(SemandaqConfig(backend_options={"bogus": 1}))

    def test_every_backend_parameter_is_accepted(self):
        names = [
            name
            for name in inspect.signature(SqliteBackend.__init__).parameters
            if name != "self"
        ]
        accepted = [name for name in names if name not in ("pool_size", "pool_timeout")]
        assert accepted == ["path", "synchronous", "max_parameters"]
        for name in accepted:
            SemandaqConfig(backend_options={name: None}).validate()
        system = Semandaq(
            SemandaqConfig(backend_options={"path": ":memory:", "max_parameters": 12})
        )
        assert system.backend.max_parameters == 12
        system.close()

    def test_unopenable_path_raises_backend_error(self, tmp_path):
        path = str(tmp_path / "missing-dir" / "store.db")
        with pytest.raises(BackendError, match="cannot open"):
            Semandaq(SemandaqConfig(backend_options={"path": path}))

    @pytest.mark.parametrize("name, value", [("pool_size", 1), ("pool_timeout", 1.0)])
    def test_pool_options_are_refused_by_name(self, name, value):
        """The pool is set through the config fields, never ``backend_options``."""
        with pytest.raises(ConfigurationError, match=f"SemandaqConfig.{name}"):
            SemandaqConfig(backend_options={name: value}).validate()
        with pytest.raises(ConfigurationError, match=f"SemandaqConfig.{name}"):
            Semandaq(SemandaqConfig(backend_options={"path": ":memory:", name: value}))

    def test_pool_fields_reach_the_backend(self, tmp_path):
        config = SemandaqConfig(
            pool_size=1,
            pool_timeout=0.05,
            backend_options={"path": str(tmp_path / "pool.db")},
        )
        system = Semandaq(config)
        timeouts = []

        def second_reader():
            try:
                with system.backend.read_connection():
                    pass
            except PoolTimeoutError as exc:
                timeouts.append(exc)

        try:
            assert system.backend.pool_stats()["pool.size"] == 1
            # the one reader is taken, so a second one waits pool_timeout
            with system.backend.read_connection():
                worker = threading.Thread(target=second_reader)
                worker.start()
                worker.join(timeout=10)
            assert not worker.is_alive()
            assert len(timeouts) == 1
        finally:
            system.close()
