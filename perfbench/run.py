"""PIPELINE: run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload clean-batch --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds``.
``--trace 1`` runs a fixed amount of the workload several times, untraced
and with every layer's entry points wrapped in spans (and the program's
own telemetry on), and reports the per-layer metrics of a traced pass.
The metric names and units are those of ``BENCHMARK.json``; the README
next to this file maps each one to its layer and workload.

Every metric is printed as ``name value unit``; the fingerprint follows as
one JSON line, and the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  Results and spans are
also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sqlite3
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: fixed work of each pass of a traced run: rounds, or seconds of requests
TRACE_WORK = {"clean-batch": 1, "monitor-repair": 1, "serve-mixed": 6.0}

STATEMENT_KINDS = (
    "q_window", "q_c_sargable", "lhs_values", "value_freq", "group_stats",
    "row_fetch", "majority_value", "attr_freq", "page_fetch",
)


def load_spec(path):
    """Metric names and units, ``(end_to_end, per_layer)``, from BENCHMARK.json."""
    with open(path) as handle:
        spec = json.load(handle)
    return tuple(
        {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class GcTimer:
    """Total time spent in garbage collection while installed."""

    def __init__(self):
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase, _info):
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info):
        gc.callbacks.remove(self)


def layer_metrics(spans, ctx, result, overhead, cpu_util, gc_ms, names):
    """The per-layer figures of one traced pass."""
    from spans import summarise, value_under

    summary = summarise(spans)

    def get(key, column):
        return summary.get(key, {}).get(column, 0.0)

    counters, hists = ctx.counters, ctx.histograms
    detect_rows = value_under(spans, "backends.execute", "detection", "detect")
    resident_repairs = counters.get("repair.source_resident", 0)
    metrics = {
        "backends.load_ms": get("backends.load", "total_ms"),
        "backends.execute_ms": get("backends.execute", "total_ms"),
        "backends.statements": get("backends.execute", "calls"),
        "backends.rows_returned": get("backends.execute", "value"),
        "backends.delta_batch_ms": get("backends.delta_batch", "total_ms"),
        "backends.delta_batches": get("backends.delta_batch", "calls"),
        "delta.ops_recorded": counters.get("delta.ops_recorded", 0),
        "delta.ops_shipped": counters.get("delta.ops_shipped", 0),
        "pool.wait_ms": counters.get("pool.wait_ms", 0.0),
        "pool.acquired": counters.get("pool.acquired", 0),
        "pool.timeouts": counters.get("pool.timeouts", 0),
        "detection.detect_ms": get("detection.detect", "total_ms"),
        "detection.detect_self_ms": get("detection.detect", "self_ms"),
        "detection.rows_per_violation":
            detect_rows / max(1.0, get("detection.detect", "value")),
        "plan_cache.hits": counters.get("plan_cache.hits", 0),
        "plan_cache.misses": counters.get("plan_cache.misses", 0),
        "detection.detect_for_tuples_ms": get("detection.detect_for_tuples", "total_ms"),
        "detection.detect_for_tuples_self_ms": get("detection.detect_for_tuples", "self_ms"),
        "detection.incremental.apply_ms": get("detection.incremental.apply", "total_ms"),
        "detection.incremental.report_ms": get("detection.incremental.report", "total_ms"),
        "detection.incremental.tuples_examined":
            counters.get("detection.incremental.tuples_examined", 0),
        "monitor.apply_batch_ms": get("monitor.apply_batch", "total_ms"),
        "monitor.repair_affected_ms": get("monitor.repair_affected", "total_ms"),
        "repair.plan_self_ms": get("repair.plan", "self_ms"),
        "repair.source_ms": get("repair.source", "total_ms"),
        "repair.iterations": get("repair.plan", "value"),
        "repair.rows_fetched": counters.get("repair.rows_fetched", 0),
        "repair.fetch_fraction":
            counters.get("repair.fetch_fraction", 0) / 100.0 / max(1, resident_repairs),
        "repair.fallback_shipback": counters.get("repair.fallback_shipback", 0),
        "repair.incremental_ms": get("repair.incremental.repair_updates", "total_ms"),
        "repair.incremental_rounds": get("repair.incremental.repair_updates", "value"),
        "sources.ms": get("sources.read", "total_ms"),
        "sources.calls": get("sources.read", "calls"),
        "sources.rows": value_under(spans, "backends.execute", "sources"),
        "audit.self_ms": get("audit.audit", "self_ms"),
        "explorer.self_ms": get("explorer.navigate", "self_ms") + get("explorer.page", "self_ms"),
        "explorer.rows_paged": get("explorer.page", "value"),
        "engine.copy_ms": get("engine.copy", "total_ms"),
        "system.unattributed_ms": sum(
            entry["self_ms"] for key, entry in summary.items() if key.startswith("system.")
        ),
        "process.cpu_util": result.metrics.get("cpu_util", cpu_util),
        "process.gc_ms": gc_ms,
        "serve.gen_late_ms": result.metrics.get("gen_late_ms", 0.0),
        "obs.trace_overhead": overhead,
    }
    for kind in STATEMENT_KINDS:
        metrics[f"backends.statement_ms.{kind}"] = hists.get(f"statement_ms.{kind}", 0.0)
    if set(metrics) != set(names):
        raise RuntimeError("per-layer metrics disagree with BENCHMARK.json")
    return metrics


def timed_pass(workload, args, workdir, tally, recorder=None):
    """One pass of the traced run's fixed work; traced when given a recorder."""
    from workloads import Context

    ctx = Context(
        args.seed, args.seconds, str(workdir), tally, recorder=recorder,
        work=TRACE_WORK[args.workload], setups=1, telemetry=recorder is not None,
    )
    if recorder is not None:
        recorder.install()
    try:
        with GcTimer() as gc_timer:
            cpu_started, wall_started = time.process_time(), time.perf_counter()
            result = workload(ctx)
            cpu = time.process_time() - cpu_started
            wall = time.perf_counter() - wall_started
    finally:
        if recorder is not None:
            recorder.uninstall()
    return ctx, result, cpu / wall, gc_timer.seconds * 1000.0


def traced_run(workload, args, workdir, tally, names):
    """Untraced and traced passes of the same fixed work; per-layer metrics.

    After a warm-up pass, the passes run untraced, traced, traced,
    untraced, so a steady drift of machine speed cancels out of the
    tracing overhead.  The per-layer figures come from the first traced
    pass.
    """
    from spans import Recorder, check_partition, self_times

    # the warm-up pass loads imports and caches, so the compared passes
    # start from the same state
    timed_pass(workload, args, workdir, tally)
    plain = [timed_pass(workload, args, workdir, tally)[0]]
    recorder = Recorder()
    ctx, result, cpu_util, gc_ms = timed_pass(workload, args, workdir, tally, recorder)
    traced = [ctx, timed_pass(workload, args, workdir, tally, Recorder())[0]]
    plain.append(timed_pass(workload, args, workdir, tally)[0])
    spans = recorder.spans
    selfs = self_times(spans)
    if not check_partition(spans, selfs):
        tally.fail("trace_parts_exceed_wall")
    roots = sum(span.duration for span in spans if span.parent is None)
    plain_wall = sum(run.op_wall for run in plain)
    metrics = layer_metrics(
        spans, ctx, result,
        overhead=sum(run.op_wall for run in traced) / plain_wall if plain_wall else 0.0,
        cpu_util=cpu_util, gc_ms=gc_ms, names=names,
    )
    extra = {
        "trace.spans": len(spans),
        "trace.root_wall_ms": roots * 1000.0,
        "trace.accounted_share": sum(selfs) / roots if roots else 0.0,
        "trace.missing_entry_points": len(recorder.missing),
    }
    recorder.dump(str(workdir / "spans.json"))
    return metrics, extra, ctx.fingerprint


def main(argv=None) -> int:
    args = parse_args(argv)
    # every run measures the same program: no environment overrides
    for key in [key for key in os.environ if key.startswith("SEMANDAQ_")]:
        del os.environ[key]
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_spec(HERE.parent / "BENCHMARK.json")
    sys.path[:0] = [str(SRC), str(HERE)]
    from stats import Tally
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = HERE / "out" / f"{label}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    samples = {}
    try:
        if args.trace:
            metrics, detail, fingerprint = traced_run(workload, args, workdir, tally, per_layer)
            units = per_layer
            detail_units = {
                key: "ms" if key.endswith("_ms") else "ratio" if "share" in key else "count"
                for key in detail
            }
        else:
            ctx = Context(args.seed, args.seconds, str(workdir), tally)
            result = workload(ctx)
            metrics = {name: result.metrics[name] for name in end_to_end}
            units = end_to_end
            detail = {k: v for k, v in result.metrics.items() if k not in end_to_end}
            detail_units = {k: result.units.get(k, "ms") for k in detail}
            fingerprint = ctx.fingerprint
            samples = result.samples
    finally:
        # the stores are scratch; results and spans stay in perfbench/out
        for path in workdir.glob("*.db*"):
            path.unlink()
    detail["error_rate"] = tally.error_rate
    detail_units["error_rate"] = "ratio"
    fingerprint.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        python=platform.python_version(), sqlite=sqlite3.sqlite_version,
        nproc=os.cpu_count(), errors=tally.errors,
    )
    for name, value in list(metrics.items()) + list(detail.items()):
        unit = units.get(name) or detail_units.get(name, "")
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"fingerprint": fingerprint}, sort_keys=True))
    outcome = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    with open(workdir / "result.json", "w") as handle:
        json.dump(
            {"fingerprint": fingerprint, "detail": detail, "samples": samples, **outcome},
            handle, indent=1,
        )
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
