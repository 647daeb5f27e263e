"""The facade's cached report and the dirty region shared by its consumers.

A cached detection report is reused only while nothing has changed the
relation or its CFDs since it was computed, whichever path made the
change: the facade's own, the monitor it built, ``mark_backend_stale`` or
the constraint engine.  On the resident path the report carries its dirty
region, the violating tuples fetched by one ``row_fetch`` pass on first
use; the audit, the explorers and the repair all read it, so a clean pass
detects once and fetches its dirty rows once, and a step that needs no
dirty rows fetches none.  No row a caller receives aliases the region.
"""

import pytest

from repro import Semandaq, SemandaqConfig
from repro.datasets import generate_customers, inject_noise, paper_cfds
from repro.detection.detector import ErrorDetector
from repro.engine.types import RelationSchema
from repro.monitor.updates import Update
from repro.sources.backend import BackendTupleSource

MODES = pytest.mark.parametrize("use_sql", [True, False], ids=["sql", "native"])


def _pair_system(sqlite_config, use_sql):
    """``r(A, B)`` holding two ``(x, 1)`` rows under ``[A=_] -> [B=_]``."""
    system = Semandaq(sqlite_config(use_sql_detection=use_sql))
    system.register_relation(
        RelationSchema.of("r", ["A", "B"]), [{"A": "x", "B": "1"}] * 2
    )
    system.add_cfd("r: [A=_] -> [B=_]")
    return system


def _answers(system):
    """What the report's consumers say about ``r``: violations, audit, explorer."""
    return (
        system.last_report("r").total_violations(),
        system.audit("r").statistics["dirty_tuples"],
        [summary.violating_tuples for summary in system.explorer("r").list_cfds()],
    )


class TestCachedReportStaysCurrent:
    @MODES
    def test_monitor_updates_outside_apply_updates_refresh_the_report(
        self, sqlite_config, use_sql
    ):
        system = _pair_system(sqlite_config, use_sql)
        try:
            assert system.detect("r").total_violations() == 0
            system.monitor("r").apply_batch([Update.modify(1, {"B": "2"})])
            assert _answers(system) == (1, 2.0, [2])
            assert system.detect("r").total_violations() == 1
            assert len(system.repair("r").changes) == 1
        finally:
            system.close()

    @MODES
    def test_mark_backend_stale_drops_the_report(self, sqlite_config, use_sql):
        system = _pair_system(sqlite_config, use_sql)
        try:
            system.monitor("r").apply_batch([Update.modify(1, {"B": "2"})])
            assert system.detect("r").total_violations() == 1
            # edit the working store back, outside the monitor
            system.database.relation("r").update(1, {"B": "1"})
            system.mark_backend_stale("r")
            assert _answers(system) == (0, 0.0, [0])
            assert system.repair("r").changes == []
        finally:
            system.close()

    @MODES
    def test_an_incremental_repair_refreshes_the_report(self, sqlite_config, use_sql):
        system = _pair_system(sqlite_config, use_sql)
        try:
            monitor = system.monitor("r")
            monitor.apply_batch([Update.modify(1, {"B": "2"})])
            assert system.detect("r").total_violations() == 1
            repair = monitor.repair_affected([1])
            assert repair is not None and repair.changes
            assert _answers(system) == (0, 0.0, [0])
        finally:
            system.close()

    @MODES
    def test_a_cfd_added_after_detection_refreshes_the_report(
        self, sqlite_config, use_sql
    ):
        system = Semandaq(sqlite_config(use_sql_detection=use_sql))
        oracle = Semandaq(sqlite_config(use_sql_detection=False))
        dirty = inject_noise(
            generate_customers(80, seed=909), rate=0.1, seed=910,
            attributes=["CITY", "STR", "CNT"],
        ).dirty
        first, *rest = paper_cfds()
        try:
            for target in (system, oracle):
                target.register_relation(dirty.copy())
            system.add_cfd(first)
            before = system.detect("customer")
            system.audit("customer")
            system.add_cfds(rest)
            oracle.add_cfds([first, *rest])
            expected = oracle.detect("customer")
            assert expected.total_violations() > before.total_violations()

            report = system.last_report("customer")
            assert report.total_violations() == expected.total_violations()
            assert report.dirty_tids() == expected.dirty_tids()
            assert system.audit("customer").to_dict() == oracle.audit("customer").to_dict()
            assert [s.violating_tuples for s in system.explorer("customer").list_cfds()] == [
                s.violating_tuples for s in oracle.explorer("customer").list_cfds()
            ]
            assert _changes(system.repair("customer")) == _changes(
                oracle.repair("customer")
            )
        finally:
            system.close()
            oracle.close()

    @MODES
    def test_a_cfd_removed_after_detection_refreshes_the_report(
        self, sqlite_config, use_sql
    ):
        system = _pair_system(sqlite_config, use_sql)
        try:
            system.add_cfd("r: [B=_] -> [A=_]")
            system.monitor("r").apply_batch([Update.modify(1, {"B": "2"})])
            assert system.detect("r").total_violations() == 1
            for cfd in system.constraints.cfds("r"):
                if cfd.lhs == ("A",):
                    system.constraints.remove(cfd.identifier)
            assert _answers(system) == (0, 0.0, [0])
            assert system.repair("r").changes == []
        finally:
            system.close()

    def test_an_unchanged_relation_keeps_its_report(self, sqlite_config):
        system = _pair_system(sqlite_config, True)
        try:
            report = system.detect("r")
            system.monitor("r")  # a fresh monitor changes nothing
            assert system.last_report("r") is report
        finally:
            system.close()


def _changes(repair):
    return [
        (c.tid, c.attribute, c.old_value, c.new_value, c.cost)
        for c in repair.changes
    ]


def _customer_system(path):
    system = Semandaq(SemandaqConfig(backend_options={"path": path}))
    dirty = inject_noise(
        generate_customers(80, seed=901), rate=0.08, seed=902,
        attributes=["CITY", "STR", "CNT"],
    ).dirty
    system.register_relation(dirty)
    system.add_cfds(paper_cfds())
    return system


def _walk(system):
    session = system.exploration_session("customer")
    options = session.options()
    for _level in range(3):
        options = session.select(options[0])
    return session.next_page(50)


class _Counted:
    """Counts full detections and the tid lists fetched row by row."""

    def __init__(self, monkeypatch):
        self.detections = 0
        self.fetches = []
        detect = ErrorDetector.detect
        fetch_rows = BackendTupleSource.fetch_rows

        def counting_detect(detector, *args, **kwargs):
            self.detections += 1
            return detect(detector, *args, **kwargs)

        def recording_fetch(source, tids):
            self.fetches.append(sorted(tids))
            return fetch_rows(source, tids)

        monkeypatch.setattr(ErrorDetector, "detect", counting_detect)
        monkeypatch.setattr(BackendTupleSource, "fetch_rows", recording_fetch)

    def dirty_passes(self, report):
        dirty = sorted(report.dirty_tids())
        return sum(1 for tids in self.fetches if tids == dirty)


class TestOneDirtyRegionPerReport:
    def test_a_clean_pass_detects_once_and_fetches_the_dirty_rows_once(
        self, tmp_path, monkeypatch
    ):
        system = _customer_system(str(tmp_path / "store.db"))
        counted = _Counted(monkeypatch)
        try:
            report = system.detect("customer")
            system.audit("customer")
            _walk(system)
            repair = system.repair("customer")
            assert repair.source == "backend" and repair.changes
            assert counted.detections == 1
            assert counted.dirty_passes(report) == 1
        finally:
            system.close()

    @pytest.mark.parametrize(
        "change",
        [
            "apply_updates",
            "apply_repair",
            "register_relation",
            "mark_backend_stale",
            "detect",
        ],
    )
    def test_every_site_that_drops_the_report_drops_its_region(
        self, tmp_path, monkeypatch, change
    ):
        system = _customer_system(str(tmp_path / "store.db"))
        counted = _Counted(monkeypatch)
        try:
            system.detect("customer")
            system.audit("customer")
            if change == "apply_updates":
                system.apply_updates("customer", [Update.modify(0, {"STR": "Elm"})])
            elif change == "apply_repair":
                system.repair("customer")
                system.apply_repair("customer")
            elif change == "register_relation":
                system.register_relation(
                    system.database.relation("customer").copy(), replace=True
                )
            elif change == "mark_backend_stale":
                system.mark_backend_stale("customer")
            else:
                system.detect("customer")
            before = len(counted.fetches)
            system.audit("customer")
            report = system.last_report("customer")
            fetched = counted.fetches[before:]
            assert fetched == [sorted(report.dirty_tids())]
        finally:
            system.close()

    def test_the_cfd_list_fetches_no_dirty_rows_and_the_repair_fetches_them_once(
        self, tmp_path, monkeypatch
    ):
        """An explorer reads the region only on a step that needs dirty rows.

        The CFD list needs none.  Every tuple is dirty, so the region is
        the whole relation; the repair reads it once and nothing else.
        """
        system = Semandaq(
            SemandaqConfig(backend_options={"path": str(tmp_path / "b.db")})
        )
        system.register_relation(
            RelationSchema.of("r", ["A", "B"]),
            [{"A": "g", "B": "x" if i % 2 else "y"} for i in range(10)],
        )
        system.add_cfd("r: [A=_] -> [B=_]")
        counted = _Counted(monkeypatch)
        try:
            assert len(system.detect("r").dirty_tids()) == 10
            assert system.explorer("r").list_cfds()[0].violating_tuples == 10
            assert system.exploration_session("r").options()
            assert counted.fetches == []
            summary = system.clean("r")
            assert summary["violations_after"] == 0
            assert counted.fetches == [list(range(10))]
        finally:
            system.close()

    def test_the_native_path_fetches_nothing(self, tmp_path, monkeypatch):
        config = SemandaqConfig(
            use_sql_detection=False, backend_options={"path": str(tmp_path / "n.db")}
        )
        system = Semandaq(config)
        system.register_relation(
            inject_noise(
                generate_customers(40, seed=903), rate=0.1, seed=904,
                attributes=["CITY"],
            ).dirty
        )
        system.add_cfds(paper_cfds())
        counted = _Counted(monkeypatch)
        try:
            system.audit("customer")
            _walk(system)
            system.repair("customer")
            assert counted.fetches == []
        finally:
            system.close()


class TestRowsHandedOutNeverAliasTheRegion:
    def test_mutating_handed_out_rows_changes_no_later_answer(self, sqlite_config):
        system = Semandaq(sqlite_config())
        system.register_relation(
            inject_noise(
                generate_customers(80, seed=905), rate=0.08, seed=906,
                attributes=["CITY", "STR", "CNT"],
            ).dirty
        )
        system.add_cfds(paper_cfds())
        try:
            report = system.detect("customer")
            audit = system.audit("customer").to_dict()
            explorer = system.explorer("customer")
            cfd_id = explorer.list_cfds()[0].cfd_id
            matches = explorer.lhs_matches(cfd_id, 0)
            first = system.repair("customer")
            changes = [(c.tid, c.attribute, c.new_value) for c in first.changes]

            dirty = sorted(report.dirty_tids())
            explorer.explain_tuple(dirty[0])["row"]["CITY"] = "Nowhere"
            for _tid, row in _walk(system):
                row["CITY"] = "Nowhere"
            for _tid, row in first.original.rows():
                row["CITY"] = "Nowhere"
            first.repaired.get(dirty[0])["CITY"] = "Nowhere"
            # a caller may also change the repair's relations through their API
            first.original.update(dirty[0], {"CITY": "Nowhere"})
            first.repaired.update(dirty[-1], {"CITY": "Nowhere"})

            assert system.audit("customer").to_dict() == audit
            again = system.explorer("customer")
            assert again.lhs_matches(cfd_id, 0) == matches
            assert [
                (c.tid, c.attribute, c.new_value)
                for c in system.repair("customer").changes
            ] == changes
        finally:
            system.close()
