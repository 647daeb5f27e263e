"""DET-SCALE — SQL-based detection time vs relation size and vs number of CFDs.

Companion experiment of [3] (TODS 2008): detection compiled to SQL scales
roughly linearly with the relation size and with the number of CFDs /
pattern tuples.  Absolute numbers depend on the backend (SQLite); the *shape*
(linear growth, no blow-up with extra pattern tuples) is what this benchmark
checks.
"""

import pytest

from bench_utils import emit_bench_json, make_dirty_customers, make_system, report_series, timed
from repro.core.parser import parse_cfd
from repro.datasets import paper_cfds


def detect(system):
    return system.detect("customer")


@pytest.mark.parametrize("size", [200, 400, 800, 1600])
def test_detection_vs_relation_size(benchmark, size):
    """Detection wall time as the relation grows (fixed 4 CFDs, 3% noise)."""
    _clean, noise = make_dirty_customers(size, rate=0.03, seed=size)
    system = make_system(noise.dirty)
    report = benchmark(detect, system)
    benchmark.extra_info["size"] = size
    benchmark.extra_info["violations"] = report.total_violations()
    assert report.tuple_count == size


def extra_cfds(count):
    """Additional constant CFDs binding country codes, to grow the tableau."""
    bindings = [("31", "NL"), ("33", "FR"), ("49", "DE"), ("81", "JP"), ("34", "ES"),
                ("39", "IT"), ("46", "SE"), ("47", "NO"), ("41", "CH"), ("43", "AT")]
    cfds = []
    for index in range(count):
        code, country = bindings[index % len(bindings)]
        cfds.append(
            parse_cfd(
                f"customer: [CC='{code}{index}'] -> [CNT='{country}']",
                name=f"extra{index}",
            )
        )
    return cfds


@pytest.mark.parametrize("cfd_count", [4, 8, 16])
def test_detection_vs_number_of_cfds(benchmark, cfd_count):
    """Detection wall time as the number of CFDs grows (fixed 600 tuples)."""
    _clean, noise = make_dirty_customers(600, rate=0.03, seed=99)
    cfds = paper_cfds() + extra_cfds(cfd_count - 4)
    system = make_system(noise.dirty, cfds=cfds)
    report = benchmark(detect, system)
    benchmark.extra_info["cfds"] = cfd_count
    benchmark.extra_info["violations"] = report.total_violations()
    assert len(report.cfd_ids) == cfd_count


def test_detection_scaling_bench_json():
    """Timed size sweep (fixed 4 CFDs), persisted to the trajectory."""
    rows = []
    for size in (200, 800):
        _clean, noise = make_dirty_customers(size, rate=0.03, seed=size)
        system = make_system(noise.dirty)
        report, detect_ms = timed(detect, system)
        assert report.tuple_count == size
        rows.append(
            {
                "size": size,
                "detect_ms": round(detect_ms, 3),
                "violations": report.total_violations(),
            }
        )
    report_series("DET-SCALE summary", rows)
    emit_bench_json("DET-SCALE", rows)
