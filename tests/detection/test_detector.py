"""Tests for the batch error detector (SQL path on SQLite and native path)."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import SqliteBackend
from repro.core.parser import parse_cfd
from repro.datasets import generate_customers, inject_noise, paper_cfds
from repro.detection.detector import ErrorDetector
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema
from repro.errors import DetectionError


def _sqlite(relation):
    backend = SqliteBackend()
    backend.add_relation(relation.copy())
    return backend


@pytest.fixture
def customer_backend(customer_relation):
    backend = _sqlite(customer_relation)
    yield backend
    backend.close()


@pytest.fixture
def detector(customer_backend):
    return ErrorDetector(customer_backend, use_sql=True)


@pytest.fixture
def native_detector(customer_database):
    return ErrorDetector(customer_database, use_sql=False)


class TestDetectExample:
    def test_detects_single_and_multi_violations(self, detector, customer_cfds):
        report = detector.detect("customer", customer_cfds)
        assert report.tuple_count == 6
        singles = report.single_violations()
        assert len(singles) == 1 and singles[0].tids == (4,)
        multis = report.multi_violations()
        # phi2 (UK zip -> street) on tuples 0,1 and phi3 (CC -> CNT) on the CC=44 group
        assert any(set(v.tids) == {0, 1} and v.rhs_attribute == "STR" for v in multis)
        assert any(v.rhs_attribute == "CNT" and 4 in v.tids for v in multis)

    def test_vio_counts_match_paper_definition(self, detector, customer_cfds):
        report = detector.detect("customer", customer_cfds)
        vio = report.vio()
        # Anna (tid 4): single phi4 violation + member of the CC=44 phi3 group of 4 tuples
        assert vio[4] == 1 + 3
        # Joe and Mary (US, agree everywhere) are clean
        assert report.vio_of(2) == 0 and report.vio_of(3) == 0

    def test_clean_relation_produces_empty_report(self, customer_cfds):
        backend = _sqlite(generate_customers(50, seed=3))
        detector = ErrorDetector(backend)
        report = detector.detect("customer", customer_cfds)
        assert report.is_clean()
        backend.close()

    def test_sql_statements_recorded(self, detector, customer_cfds):
        detector.detect("customer", customer_cfds)
        assert detector.last_sql
        assert any("GROUP BY" in sql for sql in detector.last_sql)

    def test_cached_tableaux_released_on_demand(
        self, detector, customer_cfds, customer_backend
    ):
        # tableaux stay cached between detections (repeat detects are pure
        # reads — the concurrent serving contract), live in the reserved
        # __semandaq_ namespace, and drop on release_cached_tableaux()
        before = set(customer_backend.relation_names())
        detector.detect("customer", customer_cfds)
        lingering = set(customer_backend.relation_names()) - before
        assert lingering
        assert all(name.startswith("__semandaq_tableau") for name in lingering)
        detector.detect("customer", customer_cfds)  # reuses the cache
        detector.release_cached_tableaux()
        assert set(customer_backend.relation_names()) == before

    def test_wrong_relation_rejected(self, detector):
        with pytest.raises(DetectionError):
            detector.detect("customer", [parse_cfd("orders: [A=_] -> [B=_]")])

    def test_detect_for_tuples_filters(self, detector, customer_cfds):
        report = detector.detect_for_tuples("customer", customer_cfds, [4])
        assert all(4 in violation.tids for violation in report.violations)
        assert report.total_violations() >= 1

    def test_multi_rhs_cfd_detected_per_attribute(self, customer_backend):
        cfd = parse_cfd("customer: [CC=_] -> [CNT=_, AC=_]")
        detector = ErrorDetector(customer_backend)
        report = detector.detect("customer", [cfd])
        attrs = {violation.rhs_attribute for violation in report.violations}
        assert "CNT" in attrs  # CC=44 group disagrees on CNT


class TestNativeDetectForTuples:
    """The native path keeps filter-after-detect as the oracle."""

    def test_filters_the_full_native_report(
        self, detector, native_detector, customer_cfds
    ):
        full = native_detector.detect("customer", customer_cfds)
        report = native_detector.detect_for_tuples("customer", customer_cfds, [4])
        assert report.violations == [v for v in full.violations if 4 in v.tids]
        assert report.tuple_count == full.tuple_count
        assert report.cfd_ids == full.cfd_ids
        pushed = detector.detect_for_tuples("customer", customer_cfds, [4])
        assert report.vio() == pushed.vio()
        assert report.dirty_tids() == pushed.dirty_tids()

    def test_empty_restriction_reports_nothing(self, native_detector, customer_cfds):
        report = native_detector.detect_for_tuples("customer", customer_cfds, [])
        assert report.total_violations() == 0
        assert report.tuple_count > 0


class TestPlanFlip:
    def test_flipping_detect_plan_reuses_the_generator(
        self, customer_backend, customer_cfds
    ):
        detector = ErrorDetector(customer_backend, detect_plan="legacy")
        legacy = detector.detect("customer", customer_cfds)
        generator = detector._generators["customer"]
        # the legacy family joins the materialised tableaux
        assert any("__semandaq_tableau" in sql for sql in detector.last_sql)
        detector.detect_plan = "window"
        window = detector.detect("customer", customer_cfds)
        assert detector._generators["customer"] is generator
        assert generator.detect_plan == "window"
        # the window family binds pattern constants instead
        assert not any("__semandaq_tableau" in sql for sql in detector.last_sql)
        assert window.vio() == legacy.vio()
        assert window.dirty_tids() == legacy.dirty_tids()

    def test_sql_log_is_per_thread(self, detector, customer_cfds):
        detector.detect("customer", customer_cfds)
        assert detector.last_sql
        seen = []
        worker = threading.Thread(target=lambda: seen.append(list(detector.last_sql)))
        worker.start()
        worker.join()
        assert seen == [[]]
        assert detector.last_sql  # this thread's log is untouched


class TestSqlVsNative:
    def test_same_result_on_example(self, detector, native_detector, customer_cfds):
        sql_report = detector.detect("customer", customer_cfds)
        native_report = native_detector.detect("customer", customer_cfds)
        assert sql_report.vio() == native_report.vio()
        assert sql_report.dirty_tids() == native_report.dirty_tids()

    def test_same_result_on_noisy_generated_data(self, customer_cfds):
        clean = generate_customers(150, seed=5)
        dirty = inject_noise(clean, rate=0.05, seed=6, attributes=["CNT", "CITY", "STR", "CC"]).dirty
        database = Database()
        database.add_relation(dirty)
        backend = _sqlite(dirty)
        sql_report = ErrorDetector(backend, use_sql=True).detect("customer", customer_cfds)
        native_report = ErrorDetector(database, use_sql=False).detect("customer", customer_cfds)
        assert sql_report.vio() == native_report.vio()
        backend.close()

    small_value = st.sampled_from(["a", "b", None])

    @given(
        rows=st.lists(
            st.fixed_dictionaries(
                {"CNT": small_value, "ZIP": small_value, "STR": small_value, "CC": small_value}
            ),
            min_size=0,
            max_size=10,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_property_sql_equals_native(self, rows):
        schema = RelationSchema.of("customer", ["CNT", "ZIP", "STR", "CC"])
        relation = Relation.from_rows(schema, rows)
        database = Database()
        database.add_relation(relation)
        cfds = [
            parse_cfd("customer: [CNT='a', ZIP=_] -> [STR=_]"),
            parse_cfd("customer: [CC='a'] -> [CNT='b']"),
            parse_cfd("customer: [CC=_] -> [CNT=_]"),
        ]
        backend = _sqlite(relation)
        sql_report = ErrorDetector(backend, use_sql=True).detect("customer", cfds)
        backend.close()
        native_report = ErrorDetector(database, use_sql=False).detect("customer", cfds)
        assert sql_report.vio() == native_report.vio()
        assert sql_report.dirty_tids() == native_report.dirty_tids()
