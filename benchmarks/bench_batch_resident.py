"""BATCH-RESIDENT — what telemetry costs on the resident batch detection.

``test_telemetry_overhead_is_bounded`` detects a 600-row relation on
SQLite with telemetry off and with every telemetry switch on, and records
both timings and their ratio in the BATCH-RESIDENT trajectory.  No tier-1
test bounds that ratio; the tier-1 suites pin the resident detection's
answers (``tests/detection/test_batch_resident.py``).
"""

from bench_utils import emit_bench_json, make_dirty_customers, report_series, timed
from repro.backends import SqliteBackend
from repro.datasets import paper_cfds
from repro.detection.detector import ErrorDetector
from repro.obs import Telemetry

#: the workload the trajectory has measured since the check was added
SIZE = 600

_CFDS = paper_cfds()
_WORKLOAD = make_dirty_customers(SIZE, rate=0.04, seed=307 + SIZE)[1].dirty


def _loaded_backend():
    backend = SqliteBackend()
    backend.add_relation(_WORKLOAD.copy())
    return backend


def test_telemetry_overhead_is_bounded():
    """Micro-check: full telemetry must not distort the detect numbers.

    The documented budget is < 5% on the batch-detect path (the disabled
    path is a single ``active`` check).  Wall-clock on a shared CI worker
    is too noisy to pin 5%, so the assertion is a lenient 3x backstop
    against something pathological (per-statement EXPLAIN on the hot path,
    say); the measured ratio lands in the trajectory for the real trend.
    """
    runs = {}
    for label, telemetry in (
        ("off", None),
        ("on", Telemetry(enabled=True, explain_plans=True)),
    ):
        backend = _loaded_backend()
        detector = ErrorDetector(backend, telemetry=telemetry)
        detector.detect("customer", _CFDS)  # warm the plan cache
        best = min(
            timed(detector.detect, "customer", _CFDS)[1] for _ in range(5)
        )
        runs[label] = best
        backend.close()
    ratio = runs["on"] / runs["off"] if runs["off"] else 1.0
    overhead = {
        "telemetry_off_ms": round(runs["off"], 3),
        "telemetry_on_ms": round(runs["on"], 3),
        "telemetry_overhead_ratio": round(ratio, 3),
    }
    report_series("BATCH-RESIDENT telemetry overhead", [overhead])
    emit_bench_json("BATCH-RESIDENT", [{"rows": SIZE, **overhead}], metrics=overhead)
    assert ratio < 3.0, f"telemetry overhead ratio {ratio:.2f} exceeds backstop"
