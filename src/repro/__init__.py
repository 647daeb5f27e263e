"""Semandaq reproduction: a data quality system based on conditional functional dependencies.

The package reproduces the system demonstrated in "Semandaq: A Data Quality
System Based on Conditional Functional Dependencies" (Fan, Geerts, Jia,
VLDB 2008) as a Python library:

* :mod:`repro.engine` — the relational substrate (typed relations, hash
  indexes, the working :class:`~repro.engine.database.Database`, CSV/JSON
  I/O) the native paths run on;
* :mod:`repro.backends` — the storage backends detection SQL is pushed
  down to: real-DBMS pushdown via the stdlib ``sqlite3`` module (SQLite
  3.25 or newer; ``:memory:`` by default), pluggable through
  ``SemandaqConfig(backend=...)``;
* :mod:`repro.core` — the CFD formalism (pattern tuples, tableaux, parsing,
  semantics);
* :mod:`repro.analysis` — static analysis (consistency, implication, covers);
* :mod:`repro.detection` — SQL-based batch detection and incremental detection;
* :mod:`repro.audit` — quality metrics, quality maps and reports;
* :mod:`repro.repair` — the cost-based heuristic cleanser and incremental repair;
* :mod:`repro.discovery` — CFD discovery from reference data;
* :mod:`repro.monitor` — the data monitor;
* :mod:`repro.obs` — the telemetry layer (spans, statement metrics, query
  plans, ``BENCH_*.json`` emission), enabled with
  ``SemandaqConfig(telemetry=True)``;
* :mod:`repro.explorer` — drill-down exploration and text rendering;
* :mod:`repro.system` — the :class:`~repro.system.semandaq.Semandaq` facade;
* :mod:`repro.datasets` — synthetic workloads with seeded error injection.

Quickstart::

    from repro import Semandaq
    from repro.datasets import generate_customers, paper_cfds, inject_noise

    clean = generate_customers(500, seed=1)
    dirty = inject_noise(clean, rate=0.03, seed=2).dirty

    system = Semandaq()
    system.register_relation(dirty)
    system.add_cfds(paper_cfds())
    report = system.detect("customer")
    print(system.audit("customer").pie_chart())
    repair = system.repair("customer")
"""

import logging as _logging

# Library convention: never emit log records unless the application asks.
# Statement logging (SemandaqConfig(log_sql=True)) records at DEBUG on
# child loggers; attach a handler to "repro" to see it.
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

from .backends import DeltaBatch, SqliteBackend, StorageBackend
from .core.cfd import CFD
from .core.parser import format_cfd, parse_cfd, parse_cfds
from .core.pattern import PatternTuple, PatternValue
from .detection.detector import ErrorDetector
from .detection.violations import Violation, ViolationReport
from .engine.database import Database
from .engine.relation import Relation
from .engine.types import AttributeDef, DataType, RelationSchema
from .errors import SemandaqError
from .obs import Telemetry
from .repair.cost import CostModel
from .repair.repairer import BatchRepairer, Repair
from .system.config import SemandaqConfig
from .system.semandaq import Semandaq

__version__ = "1.0.0"

__all__ = [
    "CFD",
    "PatternTuple",
    "PatternValue",
    "parse_cfd",
    "parse_cfds",
    "format_cfd",
    "Database",
    "StorageBackend",
    "DeltaBatch",
    "SqliteBackend",
    "Relation",
    "RelationSchema",
    "AttributeDef",
    "DataType",
    "ErrorDetector",
    "Violation",
    "ViolationReport",
    "CostModel",
    "BatchRepairer",
    "Repair",
    "Semandaq",
    "SemandaqConfig",
    "SemandaqError",
    "Telemetry",
    "__version__",
]
