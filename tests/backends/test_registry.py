"""Tests for the backend registry."""

import pytest

from repro.backends import (
    SqliteBackend,
    available_backends,
    create_backend,
    register_backend,
    unregister_backend,
)
from repro.backends.base import StorageBackend
from repro.errors import BackendError


class TestRegistry:
    def test_sqlite_is_the_only_builtin(self):
        assert available_backends() == ["sqlite"]

    def test_create_sqlite_backend_with_options(self, tmp_path):
        backend = create_backend("sqlite", path=str(tmp_path / "test.db"))
        assert isinstance(backend, SqliteBackend)
        assert backend.dialect.name == "sqlite"
        backend.close()

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendError):
            create_backend("postgres")

    def test_register_and_unregister_custom_backend(self):
        register_backend("custom-sqlite", SqliteBackend)
        try:
            backend = create_backend("custom-sqlite")
            assert isinstance(backend, SqliteBackend)
            backend.close()
        finally:
            unregister_backend("custom-sqlite")
        assert "custom-sqlite" not in available_backends()

    def test_duplicate_registration_requires_replace(self):
        with pytest.raises(BackendError):
            register_backend("sqlite", SqliteBackend)
        register_backend("sqlite", SqliteBackend, replace=True)

    def test_unregister_unknown_raises(self):
        with pytest.raises(BackendError):
            unregister_backend("no-such-backend")

    def test_invalid_name_raises(self):
        with pytest.raises(BackendError):
            register_backend("", SqliteBackend)

    def test_backends_implement_the_interface(self):
        for name in available_backends():
            backend = create_backend(name)
            assert isinstance(backend, StorageBackend)
            backend.close()
