"""BATCH-RESIDENT — batch detection: ship-the-relation-back vs resident.

Before the batch port of the backend-resident assembly, ``detect()``
materialised the whole relation out of the storage backend
(``to_relation``) and enumerated group members through the in-memory hash
index — against a remote server that means shipping every row back per
detection.  The resident path answers ``Q_C``/``Q_V`` plus the
covering-members plans entirely inside the backend and assembles the
report from the (small) result rows.

Two series on SQLite at 600/2400/9600 rows:

* **``ship_back``** — the old protocol, reproduced as ``to_relation()``
  followed by native detection over the shipped copy: the cost of moving
  the relation dominates and grows linearly with it;
* **``resident``** — the current ``ErrorDetector.detect``: zero
  working-store reads, result-sized transfers only.

A second pair compares the restricted view: ``filter_after_detect`` (the
old ``detect_for_tuples`` semantics — full detection, then filter the
report) vs ``pushdown`` (restricted ``Q_C``/``Q_V`` plans over the named
tids and their LHS groups).  The parameter traffic is what tracks the
restriction size.

``test_modes_agree_at_every_size`` is the guard-rail: identical violation
reports in both pairs at every size.  Set ``BENCH_SMOKE=1`` to run the
smallest size only (the CI smoke mode).
"""

import os

import pytest

from bench_utils import emit_bench_json, make_dirty_customers, report_series, timed
from repro.backends import SqliteBackend
from repro.datasets import paper_cfds
from repro.detection.detector import ErrorDetector
from repro.engine.database import Database
from repro.obs import Telemetry

SIZES = [600] if os.environ.get("BENCH_SMOKE") else [600, 2400, 9600]

_CFDS = paper_cfds()
_WORKLOADS = {
    size: make_dirty_customers(size, rate=0.04, seed=307 + size)[1].dirty
    for size in SIZES
}
#: restriction used by the detect_for_tuples series (a drill-down-sized ask)
_RESTRICTION = list(range(12))


def _loaded_backend(size):
    backend = SqliteBackend()
    backend.add_relation(_WORKLOADS[size].copy())
    return backend


def _ship_back_detect(backend):
    """The pre-port protocol: move the relation out, detect natively."""
    database = Database()
    database.add_relation(backend.to_relation("customer"))
    return ErrorDetector(database, use_sql=False).detect("customer", _CFDS)


def _filter_after_detect(detector, tids):
    """The old detect_for_tuples semantics: full detection, then filter."""
    report = detector.detect("customer", _CFDS)
    wanted = set(tids)
    return [v for v in report.violations if wanted & set(v.tids)]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("mode", ["ship_back", "resident"])
def test_batch_detection_modes(benchmark, mode, size):
    """Wall time of one batch detection per transfer mode and size."""
    backend = _loaded_backend(size)
    if mode == "resident":
        detector = ErrorDetector(backend)
        report = benchmark(detector.detect, "customer", _CFDS)
    else:
        report = benchmark(_ship_back_detect, backend)
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["rows"] = size
    benchmark.extra_info["violations"] = report.total_violations()
    backend.close()


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("mode", ["filter_after_detect", "pushdown"])
def test_restricted_detection_modes(benchmark, mode, size):
    """Wall time of the restricted ("why is this tuple dirty") view."""
    backend = _loaded_backend(size)
    detector = ErrorDetector(backend)
    if mode == "pushdown":
        report = benchmark(
            detector.detect_for_tuples, "customer", _CFDS, _RESTRICTION
        )
        violations = report.total_violations()
    else:
        filtered = benchmark(_filter_after_detect, detector, _RESTRICTION)
        violations = len(filtered)
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["rows"] = size
    benchmark.extra_info["violations"] = violations
    backend.close()


#: telemetry overhead numbers, folded into the emitted trajectory entry
_OVERHEAD = {}


def test_telemetry_overhead_is_bounded():
    """Micro-check: full telemetry must not distort the detect numbers.

    The documented budget is < 5% on the batch-detect path (the disabled
    path is a single ``active`` check).  Wall-clock on a shared CI worker
    is too noisy to pin 5%, so the assertion is a lenient 3x backstop
    against something pathological (per-statement EXPLAIN on the hot path,
    say); the measured ratio lands in the trajectory for the real trend.
    """
    size = min(SIZES)
    runs = {}
    for label, telemetry in (
        ("off", None),
        ("on", Telemetry(enabled=True, explain_plans=True)),
    ):
        backend = _loaded_backend(size)
        detector = ErrorDetector(backend, telemetry=telemetry)
        detector.detect("customer", _CFDS)  # warm the plan cache
        best = min(
            timed(detector.detect, "customer", _CFDS)[1] for _ in range(5)
        )
        runs[label] = best
        backend.close()
    ratio = runs["on"] / runs["off"] if runs["off"] else 1.0
    _OVERHEAD.update(
        {
            "telemetry_off_ms": round(runs["off"], 3),
            "telemetry_on_ms": round(runs["on"], 3),
            "telemetry_overhead_ratio": round(ratio, 3),
        }
    )
    report_series("BATCH-RESIDENT telemetry overhead", [_OVERHEAD])
    assert ratio < 3.0, f"telemetry overhead ratio {ratio:.2f} exceeds backstop"


def _keys(violations):
    return sorted(
        (v.cfd_id, v.kind, v.tids, v.rhs_attribute, v.pattern_index, v.lhs_values)
        for v in violations
    )


def test_modes_agree_at_every_size():
    """Both transfer modes and both restriction modes report identically."""
    rows = []
    for size in SIZES:
        backend = _loaded_backend(size)
        detector = ErrorDetector(backend)
        resident, resident_ms = timed(detector.detect, "customer", _CFDS)
        shipped, shipped_ms = timed(_ship_back_detect, backend)
        assert _keys(resident.violations) == _keys(shipped.violations)
        assert resident.tuple_count == shipped.tuple_count
        pushdown = detector.detect_for_tuples("customer", _CFDS, _RESTRICTION)
        filtered = _filter_after_detect(detector, _RESTRICTION)
        assert _keys(pushdown.violations) == _keys(filtered)
        rows.append(
            {
                "rows": size,
                "violations": resident.total_violations(),
                "restricted_violations": pushdown.total_violations(),
                "resident_ms": round(resident_ms, 3),
                "ship_back_ms": round(shipped_ms, 3),
            }
        )
        backend.close()
    report_series("BATCH-RESIDENT parity", rows)
    emit_bench_json("BATCH-RESIDENT", rows, metrics=dict(_OVERHEAD))
