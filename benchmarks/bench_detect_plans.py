"""DETECT-PLANS — detection plan families: legacy vs window.

The plan-variant layer compiles the paper's ``Q_C``/``Q_V`` pair two
ways: the **legacy** tableau-joined form (non-sargable wildcard predicate,
per-pattern fan-out inside one statement, separate covering-members round
trip) and the **window** family: a sargable per-pattern ``Q_C`` (constant
LHS positions become ``t.A = ?`` equalities riding the auto-built CFD-LHS
index) and a one-pass ``Q_V`` (violating groups *and* member rows in a
single statement — the detect→covering-members round trip disappears).

Two tableau shapes on SQLite at 600/2400/9600 rows:

* **narrow** — the paper's phi1…phi4: wildcard-heavy patterns where the
  win comes from the one-pass ``Q_V`` (fewer statements, no members
  round trip);
* **wide** — a constant-heavy tableau (one constant pattern per country
  in the geography domain, plus the conditional phi2) where the sargable
  constant binds let the index prune each per-pattern statement.

``test_families_agree_at_every_size`` is the guard-rail: bit-identical
violation reports across both families and the native detector at every
size and shape.  Set ``BENCH_SMOKE=1`` to run the smallest size only (the
CI smoke mode).
"""

import os

import pytest

from bench_utils import emit_bench_json, make_dirty_customers, report_series, timed
from repro.backends import SqliteBackend
from repro.core.parser import parse_cfd
from repro.datasets import paper_cfds
from repro.detection.detector import ErrorDetector
from repro.engine.database import Database

SIZES = [600] if os.environ.get("BENCH_SMOKE") else [600, 2400, 9600]
PLANS = ["legacy", "window"]

#: constant-heavy tableau: the geography table's CC->CNT associations as
#: explicit constant patterns (the noise flips CNT/CC cells, so each
#: pattern catches real single-tuple violations), plus the paper's
#: conditional phi2 so the wide shape also exercises a constant-LHS Q_V
_WIDE_CFDS = [
    parse_cfd(
        "customer: [CC='44'] -> [CNT='UK'] ; [CC='01'] -> [CNT='US'] ; "
        "[CC='31'] -> [CNT='NL'] ; [CC='49'] -> [CNT='DE'] ; "
        "[CC='33'] -> [CNT='FR']",
        name="phi_codes",
    ),
    parse_cfd("customer: [CNT='UK', ZIP=_] -> [STR=_]", name="phi2c"),
]

_SHAPES = {
    "narrow": paper_cfds(),
    "wide": _WIDE_CFDS,
}

_WORKLOADS = {
    size: make_dirty_customers(size, rate=0.04, seed=523 + size)[1].dirty
    for size in SIZES
}


def _loaded_backend(size):
    backend = SqliteBackend()
    backend.add_relation(_WORKLOADS[size].copy())
    return backend


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("shape", list(_SHAPES))
@pytest.mark.parametrize("plan", PLANS)
def test_detect_plan_families(benchmark, plan, shape, size):
    """Wall time of one warm batch detection per plan family."""
    backend = _loaded_backend(size)
    detector = ErrorDetector(backend, detect_plan=plan)
    cfds = _SHAPES[shape]
    detector.detect("customer", cfds)  # warm the plan cache
    report = benchmark(detector.detect, "customer", cfds)
    benchmark.extra_info["plan"] = plan
    benchmark.extra_info["shape"] = shape
    benchmark.extra_info["rows"] = size
    benchmark.extra_info["violations"] = report.total_violations()
    backend.close()


def _keys(report):
    return sorted(
        (v.cfd_id, v.kind, v.tids, v.rhs_attribute, v.pattern_index, v.lhs_values)
        for v in report.violations
    )


def test_families_agree_at_every_size():
    """Both families (and the native oracle) report identically."""
    rows = []
    for shape, cfds in _SHAPES.items():
        for size in SIZES:
            backend = _loaded_backend(size)
            timings = {}
            reports = {}
            for plan in PLANS:
                detector = ErrorDetector(backend, detect_plan=plan)
                detector.detect("customer", cfds)  # warm the plan cache
                best = None
                for _ in range(3):
                    report, elapsed = timed(detector.detect, "customer", cfds)
                    best = elapsed if best is None else min(best, elapsed)
                timings[plan] = best
                reports[plan] = _keys(report)
            assert reports["legacy"] == reports["window"]
            database = Database()
            database.add_relation(_WORKLOADS[size].copy())
            native = ErrorDetector(database, use_sql=False).detect("customer", cfds)
            assert _keys(native) == reports["legacy"]
            rows.append(
                {
                    "shape": shape,
                    "rows": size,
                    "violations": len(reports["legacy"]),
                    "legacy_ms": round(timings["legacy"], 3),
                    "window_ms": round(timings["window"], 3),
                }
            )
            backend.close()
    report_series("DETECT-PLANS", rows)
    top = max(SIZES)
    by_key = {(row["shape"], row["rows"]): row for row in rows}
    narrow_top = by_key[("narrow", top)]
    wide_top = by_key[("wide", top)]
    metrics = {
        "window_speedup_narrow_top": round(
            narrow_top["legacy_ms"] / narrow_top["window_ms"], 3
        ),
        "window_speedup_wide_top": round(
            wide_top["legacy_ms"] / wide_top["window_ms"], 3
        ),
    }
    emit_bench_json("DETECT-PLANS", rows, metrics=metrics)
    if not os.environ.get("BENCH_SMOKE"):
        # the acceptance claims, on the full sizes only (the smoke run is
        # too small for stable timings): the one-pass window plan beats
        # legacy on the wildcard-heavy tableau, and its sargable constant
        # binds are at least on par with legacy on the constant-heavy one
        assert narrow_top["window_ms"] < narrow_top["legacy_ms"], narrow_top
        assert wide_top["window_ms"] <= wide_top["legacy_ms"] * 1.05, wide_top
