"""The concurrent serving layer: pooled readers, one writer, no surprises.

These tests stress the PR 10 concurrency contract end to end:

* **snapshot parity** — N reader threads run ``detect`` /
  ``detect_for_tuples`` against a file-backed SQLite store while a writer
  toggles a fixed tuple set between two states with atomic
  ``DeltaBatch``es; because every batch moves the store from one complete
  state to the other, *every* concurrently produced report must equal one
  of the two serial-oracle reports — anything else means a reader saw a
  torn write;
* **thundering herd** — a ``threading.Barrier`` releases every reader at
  the same instant into a quiescent store, and all reports must equal the
  serial oracle exactly;
* **race-regression pins** — the prepared-plan cache and the
  ``MetricsRegistry`` never raise or drop counts under contention, pool
  exhaustion blocks (bounded by a timeout that raises
  :class:`PoolTimeoutError`), and ``close()`` leaves no file descriptor
  on the database path behind;
* a Hypothesis property replaying random thread-partitioned delta
  interleavings against a serialized oracle.
"""

import os
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import DeltaBatch, SqliteBackend
from repro.backends.pool import PoolTimeoutError, SqliteReaderPool
from repro.core.parser import parse_cfd
from repro.detection.detector import ErrorDetector
from repro.engine.relation import Relation
from repro.engine.types import AttributeDef, RelationSchema
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry

SCHEMA = RelationSchema(
    "items",
    [AttributeDef("GRP"), AttributeDef("VAL"), AttributeDef("TAG")],
)

#: CFD under test: within one GRP group every VAL must agree, and the
#: constant pattern pins TAG for GRP=g0 tuples
CFDS_TEXT = [
    "items: [GRP=_] -> [VAL=_]",
    "items: [GRP='g0'] -> [TAG='ok']",
]

#: tids the writer toggles between state A and state B
TOGGLE_TIDS = list(range(0, 8))


def _cfds():
    return [parse_cfd(text) for text in CFDS_TEXT]


def _rows(state: str):
    """60 rows; the toggled tids flip VAL (multi) and TAG (single) together."""
    rows = []
    for tid in range(60):
        group = f"g{tid % 6}"
        if state == "B" and tid in TOGGLE_TIDS:
            rows.append({"GRP": group, "VAL": f"other-{tid}", "TAG": "bad"})
        else:
            rows.append({"GRP": group, "VAL": f"val-{tid % 6}", "TAG": "ok"})
    return rows


def _toggle_batch(state: str) -> DeltaBatch:
    """One atomic batch moving the toggled tids to ``state``."""
    batch = DeltaBatch("items")
    rows = _rows(state)
    for tid in TOGGLE_TIDS:
        batch.record_update(tid, dict(rows[tid]))
    return batch


def _file_backend(tmp_path, name="concurrent.db", **options) -> SqliteBackend:
    backend = SqliteBackend(path=str(tmp_path / name), **options)
    backend.add_relation(Relation.from_rows(SCHEMA, _rows("A")))
    return backend


def _oracle_reports(tmp_path):
    """Serial single-threaded reports for both toggle states."""
    oracles = {}
    for state in ("A", "B"):
        backend = SqliteBackend(path=str(tmp_path / f"oracle_{state}.db"))
        backend.add_relation(Relation.from_rows(SCHEMA, _rows(state)))
        detector = ErrorDetector(backend)
        oracles[state] = {
            "detect": detector.detect("items", _cfds()),
            "for_tuples": detector.detect_for_tuples(
                "items", _cfds(), TOGGLE_TIDS
            ),
        }
        backend.close()
    return oracles


class TestSnapshotParityUnderWrites:
    def test_readers_see_state_a_or_state_b_never_a_mix(self, tmp_path):
        """The headline stress: concurrent reports equal a serial oracle.

        The writer alternates complete A->B and B->A batches; each batch
        is one SQLite transaction, so any snapshot-consistent reader must
        produce exactly oracle(A) or oracle(B).  A report equal to
        neither means a detection observed a half-applied batch.
        """
        oracles = _oracle_reports(tmp_path)
        assert oracles["A"]["detect"] != oracles["B"]["detect"]
        backend = _file_backend(tmp_path)
        detector = ErrorDetector(backend)
        stop = threading.Event()
        failures = []

        def writer():
            state = "B"
            while not stop.is_set():
                backend.apply_delta_batch("items", _toggle_batch(state))
                state = "A" if state == "B" else "B"

        def reader(use_restricted: bool):
            kind = "for_tuples" if use_restricted else "detect"
            try:
                for _ in range(12):
                    if use_restricted:
                        report = detector.detect_for_tuples(
                            "items", _cfds(), TOGGLE_TIDS
                        )
                    else:
                        report = detector.detect("items", _cfds())
                    if report not in (
                        oracles["A"][kind],
                        oracles["B"][kind],
                    ):
                        failures.append((kind, report))
            except Exception as exc:  # pragma: no cover - failure detail
                failures.append((kind, exc))

        threads = [
            threading.Thread(target=reader, args=(index % 2 == 0,))
            for index in range(4)
        ]
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        writer_thread.join()
        backend.close()
        assert failures == []

    def test_thundering_herd_matches_serial_oracle(self, tmp_path):
        """A Barrier releases every reader at once into a quiescent store."""
        backend = _file_backend(tmp_path)
        detector = ErrorDetector(backend)
        expected = detector.detect("items", _cfds())
        readers = 8
        barrier = threading.Barrier(readers)
        results = [None] * readers
        failures = []

        def reader(slot: int):
            try:
                barrier.wait(timeout=30)
                results[slot] = detector.detect("items", _cfds())
            except Exception as exc:  # pragma: no cover - failure detail
                failures.append(exc)

        threads = [
            threading.Thread(target=reader, args=(slot,))
            for slot in range(readers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        backend.close()
        assert failures == []
        assert all(report == expected for report in results)

    def test_cold_detector_race_matches_serial_oracle(self, tmp_path):
        """Threads racing a cold detector's first requests prepare its CFDs once."""
        expected = _oracle_reports(tmp_path)["B"]["for_tuples"]
        backend = SqliteBackend(path=str(tmp_path / "cold.db"))
        backend.add_relation(Relation.from_rows(SCHEMA, _rows("B")))
        detector = ErrorDetector(backend)
        cfds = _cfds()
        readers = 8
        barrier = threading.Barrier(readers)
        results = [None] * readers
        failures = []

        def reader(slot: int):
            try:
                barrier.wait(timeout=30)
                results[slot] = detector.detect_for_tuples("items", cfds, TOGGLE_TIDS)
            except Exception as exc:  # pragma: no cover - failure detail
                failures.append(exc)

        threads = [
            threading.Thread(target=reader, args=(slot,))
            for slot in range(readers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        backend.close()
        assert failures == []
        assert all(report == expected for report in results)
        assert expected.total_violations() > 0
        assert list(detector._prepared) == ["items"]

    def test_tuple_count_is_snapshot_consistent_under_inserts(self, tmp_path):
        """``tuple_count`` is read inside the same snapshot as the queries."""
        backend = _file_backend(tmp_path)
        detector = ErrorDetector(backend)
        stop = threading.Event()
        failures = []

        def writer():
            tid = 1000
            while not stop.is_set():
                batch = DeltaBatch("items")
                batch.record_insert(
                    tid, {"GRP": f"solo-{tid}", "VAL": "x", "TAG": "ok"}
                )
                backend.apply_delta_batch("items", batch)
                tid += 1

        def reader():
            try:
                for _ in range(15):
                    report = detector.detect("items", _cfds())
                    # inserts are clean singletons: the violation set never
                    # changes, only the count grows
                    if report.tuple_count < 60:
                        failures.append(report.tuple_count)
            except Exception as exc:  # pragma: no cover - failure detail
                failures.append(exc)

        writer_thread = threading.Thread(target=writer)
        reader_threads = [threading.Thread(target=reader) for _ in range(3)]
        writer_thread.start()
        for thread in reader_threads:
            thread.start()
        for thread in reader_threads:
            thread.join()
        stop.set()
        writer_thread.join()
        backend.close()
        assert failures == []


class TestThreadedDeltaReplayProperty:
    # tmp_path is per-test, not per-example: each example isolates itself
    # in a fresh subdirectory, so reusing the fixture is safe
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        partitions=st.lists(
            st.lists(
                st.tuples(st.integers(0, 9), st.text("abc", min_size=1, max_size=3)),
                min_size=1,
                max_size=5,
            ),
            min_size=2,
            max_size=4,
        )
    )
    def test_threaded_deltas_equal_serialized_replay(self, tmp_path, partitions):
        """Thread-partitioned single-tid deltas commute across threads.

        Each thread owns a disjoint tid range (thread ``i`` writes tids
        ``100*i .. 100*i+9``), so the final store is order-independent:
        it must equal replaying every delta serially, whatever
        interleaving the scheduler produced — while reader threads churn
        detections over the same store.
        """
        run_dir = tmp_path / f"prop_{len(os.listdir(tmp_path))}"
        run_dir.mkdir()
        backend = _file_backend(run_dir)
        detector = ErrorDetector(backend)
        failures = []
        barrier = threading.Barrier(len(partitions) + 1)

        def delta_writer(thread_index: int, ops):
            try:
                barrier.wait(timeout=30)
                for offset, value in ops:
                    tid = 100 * (thread_index + 1) + offset
                    batch = DeltaBatch("items")
                    if backend.execute(
                        "SELECT 1 FROM items WHERE _tid = ?", [tid]
                    ):
                        batch.record_update(tid, {"VAL": value})
                    else:
                        batch.record_insert(
                            tid,
                            {"GRP": f"p{thread_index}", "VAL": value, "TAG": "ok"},
                        )
                    backend.apply_delta_batch("items", batch)
            except Exception as exc:  # pragma: no cover - failure detail
                failures.append(exc)

        def churn_reader():
            try:
                barrier.wait(timeout=30)
                for _ in range(5):
                    detector.detect("items", _cfds())
            except Exception as exc:  # pragma: no cover - failure detail
                failures.append(exc)

        threads = [
            threading.Thread(target=delta_writer, args=(index, ops))
            for index, ops in enumerate(partitions)
        ]
        threads.append(threading.Thread(target=churn_reader))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []

        oracle = SqliteBackend(path=str(run_dir / "replay.db"))
        oracle.add_relation(Relation.from_rows(SCHEMA, _rows("A")))
        for index, ops in enumerate(partitions):
            for offset, value in ops:
                tid = 100 * (index + 1) + offset
                batch = DeltaBatch("items")
                if oracle.execute("SELECT 1 FROM items WHERE _tid = ?", [tid]):
                    batch.record_update(tid, {"VAL": value})
                else:
                    batch.record_insert(
                        tid, {"GRP": f"p{index}", "VAL": value, "TAG": "ok"}
                    )
                oracle.apply_delta_batch("items", batch)
        assert dict(backend.iter_rows("items")) == dict(oracle.iter_rows("items"))
        backend.close()
        oracle.close()


class TestRaceRegressionPins:
    def test_plan_cache_contention_never_raises_and_counts_add_up(self, tmp_path):
        backend = _file_backend(tmp_path)
        telemetry = Telemetry(enabled=True)
        detector = ErrorDetector(backend, telemetry=telemetry)
        readers = 6
        rounds = 8
        barrier = threading.Barrier(readers)
        failures = []

        def reader():
            try:
                barrier.wait(timeout=30)
                for _ in range(rounds):
                    detector.detect("items", _cfds())
            except Exception as exc:  # pragma: no cover - failure detail
                failures.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(readers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        backend.close()
        assert failures == []
        generator = detector._prepared["items"].generator
        lookups = generator.plan_cache_hits + generator.plan_cache_misses
        counters = telemetry.metrics.snapshot()["counters"]
        # no lookup lost under contention: the instance counters agree
        # with the registry counters and every detect's plans were served
        assert lookups == counters["plan_cache.hits"] + counters["plan_cache.misses"]
        assert generator.plan_cache_hits > 0

    def test_warm_detection_does_not_wait_for_the_writer(self, tmp_path):
        # detection asks for its indexes before every query phase; once
        # they exist it must not queue behind a writer shipping a batch
        backend = _file_backend(tmp_path)
        detector = ErrorDetector(backend)
        expected = detector.detect_for_tuples("items", _cfds(), TOGGLE_TIDS)
        holding = threading.Event()
        release = threading.Event()
        outcome = {}

        def writer():
            with backend._write_lock:
                holding.set()
                release.wait(timeout=30)

        def reader():
            outcome["report"] = detector.detect_for_tuples(
                "items", _cfds(), TOGGLE_TIDS
            )

        writing = threading.Thread(target=writer)
        writing.start()
        assert holding.wait(timeout=5)
        reading = threading.Thread(target=reader)
        reading.start()
        reading.join(timeout=10)
        returned_under_lock = not reading.is_alive()
        release.set()
        writing.join()
        reading.join()
        backend.close()
        assert returned_under_lock
        assert outcome["report"].vio() == expected.vio()
        assert outcome["report"].violations == expected.violations

    def test_metrics_registry_totals_equal_single_thread_sum(self):
        registry = MetricsRegistry()
        threads = 8
        increments = 5000
        barrier = threading.Barrier(threads)

        def worker():
            barrier.wait(timeout=30)
            counter = registry.counter("contended.total")
            for _ in range(increments):
                counter.inc()
                registry.histogram("contended.ms").observe(1.0)

        workers = [threading.Thread(target=worker) for _ in range(threads)]
        for worker_thread in workers:
            worker_thread.start()
        for worker_thread in workers:
            worker_thread.join()
        assert registry.counter_value("contended.total") == threads * increments
        histogram = registry.histogram("contended.ms")
        assert histogram.count == threads * increments
        assert histogram.total == pytest.approx(threads * increments * 1.0)

    def test_pool_exhaustion_blocks_until_release(self, tmp_path):
        backend = _file_backend(tmp_path, pool_size=1)
        order = []

        def holder():
            with backend.read_connection():
                order.append("held")
                time.sleep(0.2)
            order.append("released")

        def waiter():
            time.sleep(0.05)  # let the holder win the first checkout
            with backend.read_connection(timeout=5.0):
                order.append("acquired")

        threads = [threading.Thread(target=holder), threading.Thread(target=waiter)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert order == ["held", "released", "acquired"]
        backend.close()

    def test_pool_exhaustion_timeout_raises(self, tmp_path):
        backend = _file_backend(tmp_path, pool_size=1)
        release = threading.Event()
        holding = threading.Event()
        outcome = {}

        def holder():
            with backend.read_connection():
                holding.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=holder)
        thread.start()
        assert holding.wait(timeout=5)
        started = time.perf_counter()
        with pytest.raises(PoolTimeoutError) as excinfo:
            with backend.read_connection(timeout=0.1):
                outcome["acquired"] = True  # pragma: no cover
        elapsed = time.perf_counter() - started
        release.set()
        thread.join()
        assert "acquired" not in outcome
        assert 0.05 <= elapsed < 5.0
        assert excinfo.value.size == 1
        assert backend.pool_stats()["pool.timeouts"] == 1
        backend.close()

    def test_pool_rejects_nonpositive_size(self):
        with pytest.raises(Exception):
            SqliteReaderPool(0, lambda: None)


def _open_fds_for(path: str) -> int:
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):  # pragma: no cover - non-procfs platform
        pytest.skip("requires /proc-style fd introspection")
    count = 0
    for entry in os.listdir(fd_dir):
        try:
            target = os.readlink(os.path.join(fd_dir, entry))
        except OSError:
            continue
        if target.startswith(path):
            count += 1
    return count


class TestCloseDrainsPool:
    def test_close_releases_every_reader_fd(self, tmp_path):
        backend = _file_backend(tmp_path, name="fdcount.db", pool_size=4)
        detector = ErrorDetector(backend)
        path = str(tmp_path / "fdcount.db")
        barrier = threading.Barrier(4)

        def reader():
            barrier.wait(timeout=30)
            detector.detect("items", _cfds())

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert backend.pool_stats()["pool.open"] >= 1
        assert _open_fds_for(path) >= 2  # writer + at least one pooled reader
        backend.close()
        assert _open_fds_for(path) == 0
        assert backend.pool_stats()["pool.open"] == 0

    def test_context_manager_exit_drains_pool(self, tmp_path):
        path = str(tmp_path / "ctx.db")
        with SqliteBackend(path=path) as backend:
            backend.add_relation(Relation.from_rows(SCHEMA, _rows("A")))
            with backend.read_connection():
                backend.execute("SELECT COUNT(*) AS c FROM items")
        assert _open_fds_for(path) == 0

    def test_close_is_idempotent(self, tmp_path):
        backend = _file_backend(tmp_path)
        backend.close()
        backend.close()

    def test_connections_checked_out_at_close_are_closed_on_release(
        self, tmp_path
    ):
        backend = _file_backend(tmp_path, name="late.db", pool_size=2)
        path = str(tmp_path / "late.db")
        entered = threading.Event()
        finish = threading.Event()

        def late_reader():
            with backend.read_connection():
                entered.set()
                finish.wait(timeout=10)

        thread = threading.Thread(target=late_reader)
        thread.start()
        assert entered.wait(timeout=5)
        backend.close()
        finish.set()
        thread.join()
        assert _open_fds_for(path) == 0


class TestPoolModeSelection:
    def test_memory_database_disables_pool(self):
        backend = SqliteBackend(path=":memory:")
        assert backend.pool_stats() == {}
        backend.add_relation(Relation.from_rows(SCHEMA, _rows("A")))
        report = ErrorDetector(backend).detect("items", _cfds())
        assert report.tuple_count == 60
        backend.close()

    def test_pool_size_zero_forces_single_connection(self, tmp_path):
        backend = _file_backend(tmp_path, pool_size=0)
        assert backend.pool_stats() == {}
        detector = ErrorDetector(backend)
        expected = detector.detect("items", _cfds())
        failures = []

        def reader():
            try:
                for _ in range(5):
                    if detector.detect("items", _cfds()) != expected:
                        failures.append("mismatch")  # pragma: no cover
            except Exception as exc:  # pragma: no cover - failure detail
                failures.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        backend.close()
        assert failures == []
