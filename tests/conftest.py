"""Shared fixtures: the paper's customer example, generated workloads, a wired system.

The SQLite fixtures are switchable between ``:memory:`` and file-backed
stores.  The suites run against in-memory SQLite by default; setting
``SEMANDAQ_SQLITE_MODE=file`` reroutes every backend and system these
fixtures build to a database file of its own under one session directory,
so CI exercises the same suites against real files (WAL journals, durable
commits, catalog reopening, the reader pool that ``:memory:`` disables).
A test that names a ``path`` keeps it, so one that needs ``:memory:``
says so.
"""

from __future__ import annotations

import itertools
import os

import pytest

from repro import Database, Semandaq, SemandaqConfig
from repro.backends import SqliteBackend
from repro.datasets import (
    generate_customers,
    inject_noise,
    paper_cfds,
    paper_example_relation,
)


@pytest.fixture(params=["window"])
def plan_family(request):
    """The detection plan family a SQL-path test runs, carried in its id.

    Every CFD compiles to the ``window`` family of ``repro.detection.sqlgen``;
    the SQL-path parity and pushdown tests marked with this fixture are named
    for it, e.g. ``test_detect_zero_reads[window]``.
    """
    return request.param


@pytest.fixture
def customer_relation():
    """The small hand-written customer instance from the paper's examples."""
    return paper_example_relation()


@pytest.fixture
def customer_cfds():
    """The paper's CFDs phi1 … phi4."""
    return paper_cfds()


@pytest.fixture
def customer_database(customer_relation):
    """A database holding the example customer relation."""
    database = Database()
    database.add_relation(customer_relation)
    return database


@pytest.fixture
def clean_customers():
    """A medium, generated, clean customer relation (CFDs hold)."""
    return generate_customers(120, seed=7)


@pytest.fixture
def noisy_customers(clean_customers):
    """The clean relation with 5% cell noise on the CFD-relevant attributes."""
    return inject_noise(
        clean_customers,
        rate=0.05,
        seed=11,
        attributes=["CNT", "CITY", "STR", "CC"],
    )


#: whether the suites were asked to run against file-backed SQLite stores
FILE_MODE = os.environ.get("SEMANDAQ_SQLITE_MODE") == "file"


@pytest.fixture(scope="session")
def sqlite_options(tmp_path_factory):
    """Build ``SqliteBackend`` keyword arguments that honour ``SEMANDAQ_SQLITE_MODE``.

    In file mode each call without a ``path`` gets a fresh database file;
    otherwise the options pass through and the store is ``:memory:``.
    Session-scoped, so hypothesis properties may call it across examples
    (they close what they build).
    """
    directory = tmp_path_factory.mktemp("sqlite") if FILE_MODE else None
    counter = itertools.count()

    def factory(**options):
        if directory is not None and "path" not in options:
            options["path"] = str(directory / f"store_{next(counter)}.db")
        return options

    return factory


@pytest.fixture
def sqlite_backend_factory(sqlite_options):
    """Build SqliteBackend instances, file-backed when SEMANDAQ_SQLITE_MODE=file.

    Every backend the factory created is closed at teardown (closing twice
    is harmless, so tests may still close explicitly).
    """
    created = []

    def factory(**options):
        backend = SqliteBackend(**sqlite_options(**options))
        created.append(backend)
        return backend

    yield factory
    for backend in created:
        backend.close()


@pytest.fixture(scope="session")
def sqlite_config(sqlite_options):
    """Build SemandaqConfigs whose store honours SEMANDAQ_SQLITE_MODE."""

    def factory(**kwargs):
        options = sqlite_options(**kwargs.pop("backend_options", {}))
        return SemandaqConfig(backend_options=options, **kwargs)

    return factory


@pytest.fixture
def system(customer_relation, customer_cfds, sqlite_config):
    """A Semandaq system wired with the example relation and the paper's CFDs."""
    semandaq = Semandaq(sqlite_config())
    semandaq.register_relation(customer_relation)
    semandaq.add_cfds(customer_cfds)
    yield semandaq
    semandaq.close()
