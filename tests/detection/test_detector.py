"""Tests for the batch error detector (SQL path on SQLite and native path)."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Semandaq
from repro.backends import SqliteBackend
from repro.core.cfd import CFD
from repro.core.parser import parse_cfd
from repro.core.pattern import PatternTuple
from repro.datasets import generate_customers, inject_noise, paper_cfds
from repro.detection.detector import ErrorDetector
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.types import AttributeDef, DataType, RelationSchema
from repro.errors import DetectionError
from repro.monitor.updates import Update


def _sqlite(relation, sqlite_options):
    backend = SqliteBackend(**sqlite_options())
    backend.add_relation(relation.copy())
    return backend


@pytest.fixture
def customer_backend(customer_relation, sqlite_options):
    backend = _sqlite(customer_relation, sqlite_options)
    yield backend
    backend.close()


@pytest.fixture
def detector(customer_backend):
    return ErrorDetector(customer_backend)


@pytest.fixture
def native_detector(customer_database):
    return ErrorDetector(customer_database)


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

    def test_clean_relation_produces_empty_report(self, customer_cfds, sqlite_options):
        backend = _sqlite(generate_customers(50, seed=3), sqlite_options)
        detector = ErrorDetector(backend)
        report = detector.detect("customer", customer_cfds)
        assert report.is_clean()
        backend.close()

    def test_sql_statements_recorded(self, detector, customer_cfds):
        detector.detect("customer", customer_cfds)
        assert detector.last_sql
        assert any("GROUP BY" in sql for sql in detector.last_sql)

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


class TestSqlLog:
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

    def test_same_result_on_noisy_generated_data(self, customer_cfds, sqlite_options):
        clean = generate_customers(150, seed=5)
        dirty = inject_noise(clean, rate=0.05, seed=6, attributes=["CNT", "CITY", "STR", "CC"]).dirty
        database = Database()
        database.add_relation(dirty)
        backend = _sqlite(dirty, sqlite_options)
        sql_report = ErrorDetector(backend).detect("customer", customer_cfds)
        native_report = ErrorDetector(database).detect("customer", customer_cfds)
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
    def test_property_sql_equals_native(self, sqlite_options, rows):
        schema = RelationSchema.of("customer", ["CNT", "ZIP", "STR", "CC"])
        relation = Relation.from_rows(schema, rows)
        database = Database()
        database.add_relation(relation)
        cfds = [
            parse_cfd("customer: [CNT='a', ZIP=_] -> [STR=_]"),
            parse_cfd("customer: [CC='a'] -> [CNT='b']"),
            parse_cfd("customer: [CC=_] -> [CNT=_]"),
        ]
        backend = _sqlite(relation, sqlite_options)
        sql_report = ErrorDetector(backend).detect("customer", cfds)
        backend.close()
        native_report = ErrorDetector(database).detect("customer", cfds)
        assert sql_report.vio() == native_report.vio()
        assert sql_report.dirty_tids() == native_report.dirty_tids()


def _report_keys(report):
    return sorted(
        (v.cfd_id, v.kind, v.tids, v.rhs_attribute, v.pattern_index, v.lhs_values)
        for v in report.violations
    )


class TestBackendCatalog:
    """Detection reads the backend and adds nothing to its catalog."""

    def test_detection_writes_nothing_to_the_catalog(self, sqlite_config):
        clean = generate_customers(80, seed=21)
        dirty = inject_noise(
            clean, rate=0.08, seed=22, attributes=["CNT", "CITY", "STR", "CC"]
        ).dirty
        system = Semandaq(sqlite_config())
        system.register_relation(dirty)
        system.add_cfds(paper_cfds())
        names = set(system.backend.relation_names())
        report = system.detect("customer")
        assert report.total_violations() > 0
        assert set(system.backend.relation_names()) == names
        system.detect_for_tuples("customer", sorted(report.dirty_tids())[:5])
        assert set(system.backend.relation_names()) == names
        system.clean("customer")
        assert set(system.backend.relation_names()) == names
        monitor = system.monitor("customer")
        system.apply_updates(
            "customer",
            [
                Update.modify(0, {"CITY": "XXX"}),
                Update.insert(dict(dirty.get(1))),
                Update.delete(2),
            ],
        )
        monitor.current_report()
        assert set(system.backend.relation_names()) == names
        system.close()

    def test_two_detectors_share_one_backend(self, sqlite_options):
        # both detectors run every CFD list at position 0, so anything the
        # SQL path kept per position in the backend would be shared
        clean = generate_customers(80, seed=23)
        dirty = inject_noise(
            clean, rate=0.08, seed=24, attributes=["CNT", "CITY", "STR", "CC"]
        ).dirty
        database = Database()
        database.add_relation(dirty.copy())
        oracle = ErrorDetector(database)
        backend = _sqlite(dirty, sqlite_options)
        phi1, phi2, phi3, phi4 = paper_cfds()
        lists = {"first": [phi3, phi1], "second": [phi4, phi2]}
        detectors = {key: ErrorDetector(backend) for key in lists}
        for _ in range(2):
            for key, cfds in lists.items():
                report = detectors[key].detect("customer", cfds)
                expected = oracle.detect("customer", cfds)
                assert _report_keys(report) == _report_keys(expected), key
                assert report.total_violations() > 0
        backend.close()


class TestLargeTableau:
    """A warm SQL detection is linear in the CFD's pattern rows.

    The prepared-plan caches key one statement per pattern row by CFD.
    Hashing the tableau on every lookup, or comparing a freshly built
    sub-CFD with the cached one pattern by pattern, made each detection
    quadratic in the rows.  Counted calls pin it, not timings.
    """

    PATTERNS = 1000

    def _cfd(self, rhs, lhs_constant):
        patterns = []
        for index in range(self.PATTERNS):
            # even rows check the FD part (Q_V), odd rows a constant (Q_C)
            values = {"A": lhs_constant(index)}
            values.update({attr: "_" if index % 2 == 0 else "c" for attr in rhs})
            patterns.append(PatternTuple.of(values))
        return CFD(
            relation="r", lhs=("A",), rhs=rhs, patterns=tuple(patterns), name="phi_big"
        )

    @pytest.mark.parametrize(
        "a_type, rhs, lhs_constant",
        [
            (DataType.STRING, ("C",), lambda index: f"a{index}"),
            (DataType.STRING, ("C", "D"), lambda index: f"a{index}"),
            # text constants on an INTEGER column: every detection types
            # the CFD afresh (CFD.coerced_to)
            (DataType.INTEGER, ("C",), str),
        ],
        ids=["single-rhs", "two-rhs", "typed-constants"],
    )
    def test_warm_detect_makes_linear_pattern_calls(
        self, monkeypatch, sqlite_options, a_type, rhs, lhs_constant
    ):
        schema = RelationSchema(
            "r", [AttributeDef("A", a_type), AttributeDef("C"), AttributeDef("D")]
        )
        value = (lambda index: index) if a_type is DataType.INTEGER else "a{}".format
        rows = [
            {"A": value(index % 7), "C": f"c{index % 3}", "D": "c"}
            for index in range(40)
        ]
        relation = Relation.from_rows(schema, rows)
        backend = _sqlite(relation, sqlite_options)
        detector = ErrorDetector(backend)
        cfds = [self._cfd(rhs, lhs_constant)]
        warm = detector.detect("r", cfds)
        calls = {"hash": 0, "eq": 0}

        def counting(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        monkeypatch.setattr(
            PatternTuple, "__hash__", counting("hash", PatternTuple.__hash__)
        )
        monkeypatch.setattr(PatternTuple, "__eq__", counting("eq", PatternTuple.__eq__))
        report = detector.detect("r", cfds)
        monkeypatch.undo()
        backend.close()
        assert _report_keys(report) == _report_keys(warm)
        assert report.total_violations() > 0
        assert calls["hash"] + calls["eq"] <= 4 * self.PATTERNS, calls
