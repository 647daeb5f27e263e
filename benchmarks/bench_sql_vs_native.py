"""SQL-ABL — detection through generated SQL vs the native Python detector.

The paper's technique pushes detection into the DBMS as SQL; this repository
keeps a native (direct-iteration) detector over the working database as an
oracle.  The ablation shows both produce identical results and compares
their cost: the SQL path runs on SQLite (the pushdown, statements plus row
decoding), the native path walks the in-memory relation with its hash
indexes.
"""

import pytest

from bench_utils import (
    emit_bench_json,
    make_database,
    make_dirty_customers,
    make_sqlite_backend,
    report_series,
    timed,
)
from repro.datasets import paper_cfds
from repro.detection.detector import ErrorDetector

SIZE = 600
_clean, _noise = make_dirty_customers(SIZE, rate=0.04, seed=151)
_CFDS = paper_cfds()


@pytest.mark.parametrize("use_sql", [True, False], ids=["sql", "native"])
def test_detection_sql_vs_native(benchmark, use_sql):
    """Wall time of the two detection paths on the same workload."""
    if use_sql:
        source = make_sqlite_backend(_noise.dirty)
    else:
        source = make_database(_noise.dirty.copy())
    detector = ErrorDetector(source, use_sql=use_sql)
    report = benchmark(detector.detect, "customer", _CFDS)
    benchmark.extra_info["path"] = "sql" if use_sql else "native"
    benchmark.extra_info["violations"] = report.total_violations()
    if use_sql:
        source.close()


def test_sql_and_native_agree():
    """Both paths compute identical vio(t) maps — the ablation's sanity check."""
    backend = make_sqlite_backend(_noise.dirty)
    sql_detector = ErrorDetector(backend, use_sql=True)
    native_detector = ErrorDetector(make_database(_noise.dirty.copy()), use_sql=False)
    sql_report, sql_ms = timed(sql_detector.detect, "customer", _CFDS)
    native_report, native_ms = timed(native_detector.detect, "customer", _CFDS)
    backend.close()
    assert sql_report.vio() == native_report.vio()
    assert sql_report.dirty_tids() == native_report.dirty_tids()
    rows = [
        {"path": "sql", "rows": SIZE, "detect_ms": round(sql_ms, 3),
         "violations": sql_report.total_violations()},
        {"path": "native", "rows": SIZE, "detect_ms": round(native_ms, 3),
         "violations": native_report.total_violations()},
    ]
    report_series("SQL-NATIVE summary", rows)
    emit_bench_json("SQL-NATIVE", rows)
