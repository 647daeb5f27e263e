"""Backend registry: name-based construction of storage backends.

``SemandaqConfig(backend="sqlite")`` selects a backend by name; this module
is the indirection that makes the choice pluggable.  A backend *factory* is
any callable taking keyword options and returning a
:class:`~repro.backends.base.StorageBackend`.  The built-in ``sqlite``
backend is pre-registered; third parties add their own with
:func:`register_backend` before constructing the system::

    from repro.backends import register_backend
    register_backend("postgres", PostgresBackend)
    system = Semandaq(config=SemandaqConfig(backend="postgres"))
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..errors import BackendError
from .base import StorageBackend
from .sqlite import SqliteBackend

#: factory registry, keyed by backend name
_REGISTRY: Dict[str, Callable[..., StorageBackend]] = {}


def register_backend(
    name: str, factory: Callable[..., StorageBackend], replace: bool = False
) -> None:
    """Register ``factory`` under ``name`` for :func:`create_backend`."""
    if not name or not isinstance(name, str):
        raise BackendError("backend name must be a non-empty string")
    if name in _REGISTRY and not replace:
        raise BackendError(f"backend {name!r} is already registered")
    _REGISTRY[name] = factory


def unregister_backend(name: str) -> None:
    """Remove ``name`` from the registry (built-ins included — use with care)."""
    if name not in _REGISTRY:
        raise BackendError(f"backend {name!r} is not registered")
    del _REGISTRY[name]


def available_backends() -> List[str]:
    """Names of all registered backends, sorted."""
    return sorted(_REGISTRY)


def create_backend(name: str, **options) -> StorageBackend:
    """Construct the backend registered under ``name`` with ``options``."""
    if name not in _REGISTRY:
        raise BackendError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        )
    return _REGISTRY[name](**options)


register_backend("sqlite", SqliteBackend)
