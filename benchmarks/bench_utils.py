"""Shared helpers for the benchmark harness.

Every benchmark regenerates one experiment (FIG2–FIG5 demo scenarios plus
the performance/quality experiments); ``benchmarks/README.md`` explains how
to run and read them, and the ROADMAP records what each one showed.  The
helpers here build the standard workloads: clean generated customer data,
seeded noise, and a Semandaq system wired with the paper's CFDs.
"""

from __future__ import annotations

import os
import sys
import time

from repro import Database, Semandaq, SqliteBackend
from repro.datasets import generate_customers, inject_noise, paper_cfds
from repro.obs import benchjson

#: attributes the noise injector corrupts in the benchmark workloads — the
#: ones the paper's CFDs constrain.
NOISY_ATTRIBUTES = ["CNT", "CITY", "STR", "CC"]


def make_dirty_customers(size: int, rate: float, seed: int = 0):
    """Clean relation and noise result for a benchmark run."""
    clean = generate_customers(size, seed=seed)
    noise = inject_noise(clean, rate=rate, seed=seed + 1, attributes=NOISY_ATTRIBUTES)
    return clean, noise


def make_system(relation, cfds=None) -> Semandaq:
    """A Semandaq system with ``relation`` registered and CFDs added."""
    system = Semandaq()
    system.register_relation(relation)
    system.add_cfds(cfds if cfds is not None else paper_cfds())
    return system


def make_database(relation) -> Database:
    """A bare database holding ``relation``."""
    database = Database()
    database.add_relation(relation)
    return database


def make_sqlite_backend(relation) -> SqliteBackend:
    """An in-memory SQLite backend holding a copy of ``relation``."""
    backend = SqliteBackend()
    backend.add_relation(relation.copy())
    return backend


def report_series(title: str, rows) -> None:
    """Print one experiment series (visible with ``pytest -s`` / in captured logs)."""
    print(f"\n[{title}]", file=sys.stderr)
    for row in rows:
        print("  " + ", ".join(f"{key}={value}" for key, value in row.items()), file=sys.stderr)


def timed(fn, *args, **kwargs):
    """Run ``fn`` and return ``(result, elapsed_ms)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - start) * 1000.0


def results_dir() -> str:
    """Directory the BENCH_*.json trajectories are written to.

    ``benchmarks/results/`` next to this file, overridable with the
    ``BENCH_JSON_DIR`` environment variable (CI points it at a workspace
    path it can upload as an artifact).
    """
    default = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
    return os.environ.get("BENCH_JSON_DIR", default)


def emit_bench_json(name: str, series, metrics=None, directory=None) -> str:
    """Append one trajectory entry for benchmark ``name`` and return the path.

    Every benchmark calls this exactly once with the series rows it printed
    via :func:`report_series` (concatenated, when it prints several) and an
    optional flat ``metrics`` mapping; the schema and the append/trim
    behaviour live in :mod:`repro.obs.benchjson` so CI validates against
    the same definition.
    """
    target_dir = directory or results_dir()
    os.makedirs(target_dir, exist_ok=True)
    path = os.path.join(target_dir, benchjson.bench_file_name(name))
    entry = benchjson.build_entry(series, metrics=metrics)
    benchjson.append_entry(path, name, entry)
    return path
