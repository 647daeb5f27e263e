"""The three PIPELINE workloads, driven only through the ``Semandaq`` facade.

Every workload runs on a file-backed SQLite store with default settings
(``serve-mixed`` also sizes the reader pool to its worker count).  Each
returns its measurements in a :class:`Result`; correctness is judged by
oracles that run outside the timed operations and feed the shared
:class:`~stats.Tally`.

- ``clean-batch``: 50k rows, one closed-loop client walking the paper's
  steps: detect, audit, explore, repair, apply, detect.
- ``monitor-repair``: 2k rows cleaned in set-up, then a closed-loop stream
  of 16-update batches through the monitor in post-clean repair mode.
- ``serve-mixed``: 20k rows; an open loop of ``detect_for_tuples`` requests
  at a ladder of fixed rates while the writer ships 16-update batches at a
  fixed 5 batches/s.
"""

from __future__ import annotations

import gc
import os
import queue
import random
import resource
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro import AttributeDef, DataType, RelationSchema, Semandaq, SemandaqConfig
from repro.monitor.updates import Update

from data import ATTRIBUTES, CFDS, UpdateStream, dirty_customers, other_city
from spans import Recorder
from stats import OpenLoop, Tally, fast, median, tail

NAME = "customer"
SCHEMA = RelationSchema(
    name=NAME, attributes=[AttributeDef(attr, DataType.STRING) for attr in ATTRIBUTES]
)
#: serve-mixed: offered request rates (1/s), the nominal one first
LADDER = (20, 40, 60, 80)
#: serve-mixed: tail-latency limit a rate must meet (seconds)
LATENCY_LIMIT = 0.050
#: serve-mixed: writer batches offered per second
WRITE_RATE = 5.0
#: serve-mixed: seconds of one pass through the ladder
CYCLE_SECONDS = 3.5
TOGGLED = 16
REQUEST_SETS = 64


@dataclass
class Context:
    """What a workload needs from the runner, and what it hands back."""

    seed: int
    seconds: float
    workdir: str
    tally: Tally
    #: span recorder of the traced pass (None when untraced)
    recorder: Optional[Recorder] = None
    #: fixed amount of work (rounds, or seconds of requests) for the
    #: passes of a traced run; None measures for ``seconds``
    work: Optional[float] = None
    setups: int = 3
    telemetry: bool = False
    #: summed wall time of every facade call, for the tracing overhead
    op_wall: float = 0.0
    #: telemetry of every closed system: counters and histogram totals
    counters: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, float] = field(default_factory=dict)
    fingerprint: Dict[str, Any] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def call(self, name: str, fn: Callable[[], Any]):
        """One facade call: counted, timed, and a root span when traced."""
        scope = self.recorder.root(name) if self.recorder else nullcontext()
        with scope:
            started = time.perf_counter()
            result = self.tally.run(fn)
            elapsed = time.perf_counter() - started
        with self._lock:
            self.op_wall += elapsed
        return result, elapsed

    def store(self, label: str) -> str:
        path = os.path.join(self.workdir, f"{label}.db")
        remove_store(path)
        return path

    def system(self, path: str, pool_size: Optional[int] = None) -> Semandaq:
        config = SemandaqConfig(
            backend="sqlite", backend_options={"path": path}, telemetry=self.telemetry
        )
        if pool_size is not None:
            config.pool_size = pool_size
        return Semandaq(config)

    def count_examined(self, system: Semandaq) -> None:
        """Add the monitor's incremental-detection work to the counters."""
        key = "detection.incremental.tuples_examined"
        examined = system.monitor(NAME).detection_cost()
        self.counters[key] = self.counters.get(key, 0) + examined

    @contextmanager
    def unmeasured(self, system: Semandaq) -> Iterator[None]:
        """Keep the program telemetry of an oracle out of the traced figures."""
        before = system.metrics() if self.telemetry else None
        yield
        if before is not None:
            after = system.metrics()
            for name, value in after["counters"].items():
                spent = value - before["counters"].get(name, 0)
                self.counters[name] = self.counters.get(name, 0) - spent
            for name, hist in after["histograms"].items():
                spent = hist["total"] - before["histograms"].get(name, {}).get("total", 0.0)
                self.histograms[name] = self.histograms.get(name, 0.0) - spent

    def close(self, system: Semandaq) -> None:
        if self.telemetry:
            snapshot = system.metrics()
            for name, value in snapshot["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, hist in snapshot["histograms"].items():
                self.histograms[name] = self.histograms.get(name, 0.0) + hist["total"]
        system.close()


@dataclass
class Result:
    """End-to-end figures of one pass (the runner picks what it reports)."""

    metrics: Dict[str, float]
    units: Dict[str, str]
    #: the raw timings (seconds) behind the figures, kept in result.json
    samples: Dict[str, List[float]] = field(default_factory=dict)


def remove_store(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


def file_bytes(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical(report) -> tuple:
    """Order-independent identity of a violation report."""
    return (
        report.tuple_count,
        tuple(sorted(
            repr((v.cfd_id, v.kind, v.tids, v.rhs_attribute, v.pattern_index, v.lhs_values))
            for v in report.violations
        )),
    )


def resolved_plan(system: Semandaq) -> str:
    """The detection plan family the default settings resolve to."""
    try:
        from repro.detection.sqlgen import default_detect_plan, resolve_detect_plan

        return resolve_detect_plan(default_detect_plan(), system.backend.dialect)
    except (ImportError, AttributeError):
        return "unknown"


def more(ctx: Context, done: int, deadline: float) -> bool:
    """Whether another round starts: a fixed number, or until the deadline.

    The deadline is checked between rounds, so a run measures whole rounds
    and may end up to one round past ``seconds``.
    """
    if ctx.work is not None:
        return done < ctx.work
    return done == 0 or time.perf_counter() < deadline


def set_up(ctx: Context, rows, label: str, clean=False, pool_size=None):
    """Semandaq() through the first warm detect; returns (system, seconds, relation)."""
    path = ctx.store(label)
    # garbage of earlier work is collected here, not inside the timed set-up
    gc.collect()
    started = time.perf_counter()
    system, _ = ctx.call("Semandaq", lambda: ctx.system(path, pool_size))
    relation, _ = ctx.call("register_relation", lambda: system.register_relation(SCHEMA, rows))
    ctx.call("add_cfds", lambda: system.add_cfds(CFDS))
    if clean:
        ctx.call("clean", lambda: system.clean(NAME))
    if clean or pool_size is not None:
        ctx.call("monitor", lambda: system.monitor(NAME))
    ctx.call("detect", lambda: system.detect(NAME))
    elapsed = time.perf_counter() - started
    ctx.fingerprint.update(
        store_bytes=file_bytes(path),
        wal_bytes=file_bytes(path + "-wal"),
        detect_plan=resolved_plan(system),
        pool_size=system.backend.pool_stats().get("pool.size", 0),
    )
    return system, elapsed, relation


def repeated_setup(ctx: Context, rows, label: str, **kwargs):
    """Set up ``ctx.setups`` times; keeps the last system, returns every time."""
    times = []
    for attempt in range(ctx.setups):
        system, elapsed, relation = set_up(ctx, rows, f"{label}-{attempt}", **kwargs)
        times.append(elapsed)
        if attempt < ctx.setups - 1:
            ctx.close(system)
    return system, times, relation


# -- clean-batch ------------------------------------------------------------------

CLEAN_STEPS = ("detect", "audit", "explore", "repair", "apply", "post_detect")


def _walk(system: Semandaq) -> int:
    """Select CFD -> pattern -> LHS group, then page 50 tuples."""
    session = system.exploration_session(NAME)
    options = session.options()
    for _level in range(3):
        options = session.select(options[0])
    return len(session.next_page(50))


def clean_batch(ctx: Context) -> Result:
    """Rounds of: set up, detect, audit, explore, repair, apply the repair
    and detect again.

    Apply needs a fresh store, so every round sets up anew; one pass per
    round spreads the samples of every step, apply and set-up included,
    evenly over the run.  A pass of the paper's steps is timed as the sum
    of the per-step figures, which rests on many more samples than whole
    passes.
    """
    rows = dirty_customers(50_000, ctx.seed)
    ctx.fingerprint["relation_rows"] = len(rows)
    samples: Dict[str, List[float]] = {key: [] for key in ("setup",) + CLEAN_STEPS}
    reports: List[Any] = []
    after: List[Any] = []
    deadline = time.perf_counter() + ctx.seconds
    rss = 0.0
    rounds = 0
    while more(ctx, rounds, deadline):
        system, setup_s, _ = set_up(ctx, rows, f"clean-{rounds % 2}")
        samples["setup"].append(setup_s)
        report, elapsed = ctx.call("detect", lambda: system.detect(NAME))
        samples["detect"].append(elapsed)
        reports.append(report)
        for key, fn in (
            ("audit", lambda: system.audit(NAME)),
            ("explore", lambda: _walk(system)),
            ("repair", lambda: system.repair(NAME)),
        ):
            samples[key].append(ctx.call(key, fn)[1])
        samples["apply"].append(ctx.call("apply_repair", lambda: system.apply_repair(NAME))[1])
        post, elapsed = ctx.call("detect", lambda: system.detect(NAME))
        samples["post_detect"].append(elapsed)
        after.append(post)
        rss = max(rss, peak_rss_mb())
        ctx.close(system)
        rounds += 1

    # oracles, outside the timed operations: the native detector on the same
    # rows, and a clean relation after the repair was applied
    native = Semandaq(SemandaqConfig(use_sql_detection=False))
    native.register_relation(SCHEMA, rows)
    native.add_cfds(CFDS)
    expected = canonical(native.detect(NAME))
    native.close()
    for report in reports:
        if report is not None:
            ctx.tally.check(canonical(report) == expected, "detect_oracle")
    for post in after:
        if post is not None:
            ctx.tally.check(post.total_violations() == 0, "post_apply_violations")
    ctx.fingerprint["rounds"] = rounds
    ms = {key: 1000.0 * median(values) for key, values in samples.items()}
    pass_ms = sum(ms[key] for key in CLEAN_STEPS)
    return Result(
        metrics={
            "setup_s": fast(samples["setup"]),
            "op_p10_ms": sum(1000.0 * fast(samples[key]) for key in CLEAN_STEPS),
            "write_p10_ms": 1000.0 * fast(samples["apply"]),
            "peak_rss_mb": rss,
            "setup_p50_s": ms["setup"] / 1000.0,
            "detect_ms": ms["detect"],
            "audit_ms": ms["audit"],
            "explore_ms": ms["explore"],
            "repair_ms": ms["repair"],
            "apply_ms": ms["apply"],
            "pipeline_s": pass_ms / 1000.0,
        },
        units={"pipeline_s": "s", "setup_p50_s": "s"},
        samples=samples,
    )


# -- monitor-repair ---------------------------------------------------------------

#: monitor-repair: relation size and update batches per round
MONITOR_ROWS = 2_000
BATCHES_PER_ROUND = 4


def monitor_repair(ctx: Context) -> Result:
    """Rounds of: set up and clean (``ctx.setups`` times, keeping the last
    store), then ``BATCHES_PER_ROUND`` update batches.

    Every round replays the same seeded stream on a fresh store, so the
    work of a run (and its peak memory: the monitor keeps every repair it
    made) does not depend on how many batches fit in the time.
    """
    rows = dirty_customers(MONITOR_ROWS, ctx.seed)
    ctx.fingerprint["relation_rows"] = len(rows)
    setups: List[float] = []
    latencies: List[float] = []
    writes: List[float] = []
    updates = 0
    rss = 0.0
    deadline = time.perf_counter() + ctx.seconds
    rounds = 0
    while more(ctx, rounds, deadline):
        # a 2k-row set-up is short, so each round sets up several times
        system, times, relation = repeated_setup(
            ctx, rows, f"monitor-{rounds % 2}", clean=True
        )
        setups.extend(times)
        ctx.fingerprint["incremental_mode"] = system.monitor(NAME).mode
        stream = UpdateStream(rows, relation.tids(), len(rows), ctx.seed)
        report = None
        for _batch in range(BATCHES_PER_ROUND):
            batch = stream.next_batch()
            changes = [
                Update.insert(payload) if kind == "insert"
                else Update.delete(payload) if kind == "delete"
                else Update.modify(*payload)
                for kind, payload in batch
            ]
            started = time.perf_counter()
            tids, elapsed = ctx.call("apply_updates", lambda: system.apply_updates(NAME, changes))
            report, _ = ctx.call("current_report", lambda: system.monitor(NAME).current_report())
            latencies.append(time.perf_counter() - started)
            writes.append(elapsed)
            updates += len(changes)
            if tids is not None:
                inserts = [(tid, row) for (kind, row), tid in zip(batch, tids) if kind == "insert"]
                stream.inserted([tid for tid, _ in inserts], [row for _, row in inserts])
        rss = max(rss, peak_rss_mb())
        # oracle: the incrementally maintained report equals a fresh batch detect
        with ctx.unmeasured(system):
            fresh = system.detect(NAME)
        if report is not None:
            ctx.tally.check(canonical(report) == canonical(fresh), "monitor_oracle")
        ctx.fingerprint["relation_rows_final"] = fresh.tuple_count
        ctx.count_examined(system)
        ctx.close(system)
        rounds += 1
    ctx.fingerprint.update(rounds=rounds, batches=len(latencies))
    found = tail(latencies)
    return Result(
        metrics={
            "setup_s": fast(setups),
            "op_p10_ms": 1000.0 * fast(latencies),
            "write_p10_ms": 1000.0 * fast(writes),
            "peak_rss_mb": rss,
            "setup_p50_s": median(setups),
            "update_p50_ms": 1000.0 * median(latencies),
            "update_tail_ms": 1000.0 * found[1] if found else 0.0,
            "update_tail_pct": found[0] if found else 0.0,
            "updates_per_s": updates / sum(latencies),
            "batches": float(len(latencies)),
        },
        units={
            "setup_p50_s": "s", "updates_per_s": "1/s", "update_tail_pct": "pct",
            "batches": "count",
        },
        samples={"setup": setups, "batch": latencies, "write": writes},
    )


# -- serve-mixed ------------------------------------------------------------------


@dataclass
class _Request:
    rate: int
    due: float
    tid_set: int
    picked: float = 0.0
    began: float = 0.0
    done: float = 0.0
    report: Any = None


def _toggle(tids: Sequence[int], values: Dict[int, str]) -> List[Update]:
    return [Update.modify(tid, {"CITY": values[tid]}) for tid in tids]


def serve_mixed(ctx: Context) -> Result:
    workers = max(1, (os.cpu_count() or 2) - 1)
    rows = dirty_customers(20_000, ctx.seed)
    ctx.fingerprint["relation_rows"] = len(rows)
    system, elapsed, relation = set_up(ctx, rows, "serve", pool_size=workers)
    setups = [elapsed]
    ctx.fingerprint.update(incremental_mode=system.monitor(NAME).mode, workers=workers)
    rng = random.Random(ctx.seed + 11)
    tids = relation.tids()
    toggled = rng.sample(tids, TOGGLED)
    by_tid = dict(zip(tids, rows))
    state_a = {tid: by_tid[tid]["CITY"] for tid in toggled}
    state_b = {tid: other_city(state_a[tid], rng) for tid in toggled}
    batches = (_toggle(toggled, state_b), _toggle(toggled, state_a))
    tid_sets = []
    for _ in range(REQUEST_SETS):
        chosen = set(rng.sample(tids, 3))
        chosen.add(rng.choice(toggled) if rng.random() < 0.5 else rng.choice(tids))
        tid_sets.append(sorted(chosen))

    # serial oracles of both complete writer states (state A is the loaded data)
    oracles = [set() for _ in tid_sets]
    with ctx.unmeasured(system):
        for state, toggle in (("A", None), ("B", batches[0]), ("A", batches[1])):
            if toggle is not None:
                system.apply_updates(NAME, toggle)
            if state == "B" or toggle is None:
                for index, tid_set in enumerate(tid_sets):
                    oracles[index].add(canonical(system.detect_for_tuples(NAME, tid_set)))

    if ctx.work is not None:
        ladder = [(LADDER[0], float(ctx.work))]
    else:
        # the ladder repeats until the time is up, so every rate is sampled
        # across the whole run, not in one stretch a slow spell may cover
        ladder = [(LADDER[0], 0.4 * CYCLE_SECONDS)] + [
            (rate, 0.2 * CYCLE_SECONDS) for rate in LADDER[1:]
        ]
    work: "queue.Queue[Optional[_Request]]" = queue.Queue()
    requests: List[_Request] = []

    def worker() -> None:
        while True:
            request = work.get()
            if request is None:
                return
            request.picked = time.perf_counter()
            if request.due > request.picked:
                time.sleep(request.due - request.picked)
            request.began = time.perf_counter()
            request.report, _ = ctx.call(
                "detect_for_tuples",
                lambda: system.detect_for_tuples(NAME, tid_sets[request.tid_set]),
            )
            request.done = time.perf_counter()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(workers)]
    for thread in threads:
        thread.start()
    cpu_started = time.process_time()
    started = time.perf_counter()
    write_latencies: List[float] = []
    apply_latencies: List[float] = []
    offered = 0
    #: requests per rate, and the most left queued at the end of any step
    by_rate: Dict[int, OpenLoop] = {}
    backlogs: Dict[int, int] = {}
    #: set-ups between cycles, kept out of the serving window
    paused_wall = paused_cpu = 0.0
    deadline = started + ctx.seconds
    cycles = 0
    while cycles == 0 or (ctx.work is None and time.perf_counter() < deadline):
        for rate, duration in ladder:
            step_start = time.perf_counter()
            step_end = step_start + duration
            loop = OpenLoop(float(rate), step_start)
            step_requests = [
                _Request(rate, loop.due(k), rng.randrange(len(tid_sets)))
                for k in range(loop.count_until(step_end))
            ]
            for request in step_requests:
                work.put(request)
            requests.extend(step_requests)
            # the writer: batch j of the step is due at step start + j / rate,
            # applied back to back when behind; a batch not started by the end
            # of its step counts against write_keepup
            writes = OpenLoop(WRITE_RATE, step_start)
            offered += writes.count_until(step_end)
            applied = 0
            while True:
                due = writes.due(applied)
                if due >= step_end or time.perf_counter() >= step_end:
                    break
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                toggle = batches[len(write_latencies) % 2]
                began = time.perf_counter()
                apply_latencies.append(
                    ctx.call("apply_updates", lambda: system.apply_updates(NAME, toggle))[1]
                )
                ctx.call("current_report", lambda: system.monitor(NAME).current_report())
                write_latencies.append(time.perf_counter() - began)
                applied += 1
            delay = step_end - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            queued = sum(1 for request in step_requests if request.done == 0.0)
            backlogs[rate] = max(backlogs.get(rate, 0), queued)
            by_rate.setdefault(rate, OpenLoop(float(rate), started))
            # drain, so no step's latencies carry the queue of the step before
            while any(request.done == 0.0 for request in step_requests):
                time.sleep(0.002)
        if ctx.work is None:
            # a set-up after every cycle spreads the setup_s samples over the run
            wall_mark, cpu_mark = time.perf_counter(), time.process_time()
            extra, elapsed, _ = set_up(ctx, rows, "serve-extra", pool_size=workers)
            ctx.close(extra)
            setups.append(elapsed)
            paused_wall += time.perf_counter() - wall_mark
            paused_cpu += time.process_time() - cpu_mark
        cycles += 1
    window = time.perf_counter() - started - paused_wall
    for _ in threads:
        work.put(None)
    for thread in threads:
        thread.join()
    cpu = time.process_time() - cpu_started - paused_cpu
    rss = peak_rss_mb()

    for request in requests:
        by_rate[request.rate].record(request.due, request.picked, request.began, request.done)
        if request.report is not None:
            ctx.tally.check(
                canonical(request.report) in oracles[request.tid_set], "serve_oracle"
            )
    ctx.count_examined(system)
    ctx.close(system)
    max_rps = 0.0
    for rate, backlog in backlogs.items():
        if not by_rate[rate].keeps_up(LATENCY_LIMIT, backlog, workers):
            break
        max_rps = float(rate)
    nominal = by_rate[LADDER[0]]
    found = tail(nominal.latencies)
    lateness = [late for loop in by_rate.values() for late in loop.lateness]
    ctx.fingerprint.update(requests=len(requests), cycles=cycles)
    return Result(
        metrics={
            "setup_s": fast(setups),
            "op_p10_ms": 1000.0 * fast(nominal.latencies),
            "write_p10_ms": 1000.0 * fast(apply_latencies),
            "peak_rss_mb": rss,
            "setup_p50_s": median(setups),
            "serve_p50_ms": 1000.0 * median(nominal.latencies),
            "serve_tail_ms": 1000.0 * found[1] if found else 0.0,
            "serve_tail_pct": found[0] if found else 0.0,
            "serve_samples": float(len(nominal.latencies)),
            "serve_max_rps": max_rps,
            "update_p50_ms": 1000.0 * median(write_latencies),
            "write_keepup": min(1.0, len(write_latencies) / max(1, offered)),
            "gen_late_ms": 1000.0 * median(lateness),
            "cpu_util": cpu / window,
        },
        units={
            "setup_p50_s": "s", "serve_tail_pct": "pct", "serve_samples": "count", "serve_max_rps": "1/s",
            "write_keepup": "ratio", "cpu_util": "ratio",
        },
        samples={"setup": setups, "serve": nominal.latencies, "write": apply_latencies},
    )


WORKLOADS = {
    "clean-batch": clean_batch,
    "monitor-repair": monitor_repair,
    "serve-mixed": serve_mixed,
}
