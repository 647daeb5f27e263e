"""AUDIT-ABL — design ablations of the auditor.

Two design choices of the auditor, each against its alternative (the
ROADMAP's architecture notes record the auditor's design;
``benchmarks/README.md`` explains how to run the benchmarks):

* reusing the detector's violation report vs re-detecting inside the auditor
  (the report-reuse design is what the Semandaq facade does);
* linear vs quantile bucketing of the data quality map.
"""

import pytest

from bench_utils import emit_bench_json, make_dirty_customers, make_database, report_series, timed
from repro.audit.quality_map import build_quality_map
from repro.audit.report import DataAuditor
from repro.datasets import paper_cfds
from repro.detection.detector import ErrorDetector

SIZE = 600
_clean, _noise = make_dirty_customers(SIZE, rate=0.05, seed=131)
_DATABASE = make_database(_noise.dirty)
_CFDS = paper_cfds()
_REPORT = ErrorDetector(_DATABASE).detect("customer", _CFDS)
_RELATION = _DATABASE.relation("customer")


def test_audit_reusing_detection_report(benchmark):
    """Auditing from an existing violation report (the system's default path)."""
    auditor = DataAuditor()
    result = benchmark(auditor.audit, _RELATION, _CFDS, _REPORT)
    benchmark.extra_info["dirty_pct"] = round(result.dirty_percentage(), 2)


def test_audit_with_redetection(benchmark):
    """Ablation: re-running detection every time the auditor is invoked."""
    auditor = DataAuditor()

    def run():
        report = ErrorDetector(_DATABASE).detect("customer", _CFDS)
        return auditor.audit(_RELATION, _CFDS, report)

    result = benchmark(run)
    benchmark.extra_info["dirty_pct"] = round(result.dirty_percentage(), 2)


@pytest.mark.parametrize("strategy", ["linear", "quantile"])
def test_quality_map_bucketing_strategies(benchmark, strategy):
    """Linear vs quantile shading of the quality map (cost and histogram shape)."""
    quality_map = benchmark(build_quality_map, _RELATION, _REPORT, 5, strategy)
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info["histogram"] = quality_map.histogram()
    assert sum(quality_map.histogram().values()) == SIZE


def test_audit_ablation_bench_json():
    """Timed reuse-vs-redetect summary, persisted to the trajectory."""
    auditor = DataAuditor()
    result, reuse_ms = timed(auditor.audit, _RELATION, _CFDS, _REPORT)

    def redetect_and_audit():
        report = ErrorDetector(_DATABASE).detect("customer", _CFDS)
        return auditor.audit(_RELATION, _CFDS, report)

    _, redetect_ms = timed(redetect_and_audit)
    rows = [
        {"path": "reuse_report", "audit_ms": round(reuse_ms, 3),
         "dirty_pct": round(result.dirty_percentage(), 2)},
        {"path": "redetect", "audit_ms": round(redetect_ms, 3),
         "dirty_pct": round(result.dirty_percentage(), 2)},
    ]
    report_series("AUDIT-ABL summary", rows)
    emit_bench_json("AUDIT-ABL", rows)
