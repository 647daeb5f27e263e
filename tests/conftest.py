"""Shared fixtures: the paper's customer example, generated workloads, a wired system."""

from __future__ import annotations

import pytest

from repro import Database, Semandaq
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


@pytest.fixture
def system(customer_relation, customer_cfds):
    """A Semandaq system wired with the example relation and the paper's CFDs."""
    semandaq = Semandaq()
    semandaq.register_relation(customer_relation)
    semandaq.add_cfds(customer_cfds)
    return semandaq
