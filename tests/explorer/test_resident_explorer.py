"""The backend-resident explorer: native parity, keyset paging, and pins.

With SQL detection on the explorer answers every drill-down step
from pushed-down aggregates (``attr_freq`` group histograms,
``majority_value`` RHS histograms) plus one cached fetch of the dirty
rows, and hydrates tuple listings one ``page_fetch`` page at a time.
Navigation output must be identical to the native full-relation walk, and
no step may ship rows out of the backend (``to_relation`` / ``get_row`` /
``iter_rows``) — not even the working :class:`Relation` needs to exist
while the user navigates.
"""

import pytest

from repro import Semandaq
from repro.datasets import generate_customers, inject_noise, paper_cfds
from repro.errors import ExplorerError
from tests.doubles import ForbiddenReadBackend, ForbiddenRelation


def _make_system(sqlite_config, **config):
    system = Semandaq(config=sqlite_config(**config))
    clean = generate_customers(60, seed=401)
    dirty = inject_noise(
        clean, rate=0.08, seed=402, attributes=["CITY", "STR", "CNT"]
    ).dirty
    system.register_relation(dirty)
    system.add_cfds(paper_cfds())
    return system


def _pin_backend(system):
    wrapped = ForbiddenReadBackend(system.backend)
    system.backend = wrapped
    system.detector.backend = wrapped
    return wrapped


def _walk(explorer):
    """Every navigation answer of the Fig. 2 drill-down, as one structure."""
    state = {"cfds": explorer.list_cfds(), "patterns": {}, "lhs": {}, "rhs": {},
             "tuples": {}, "dirtiest": explorer.dirtiest_tuples()}
    for summary in state["cfds"]:
        cfd_id = summary.cfd_id
        state["patterns"][cfd_id] = explorer.patterns_for(cfd_id)
        for pattern in state["patterns"][cfd_id]:
            index = pattern.pattern_index
            matches = explorer.lhs_matches(cfd_id, index)
            state["lhs"][(cfd_id, index)] = matches
            for match in matches[:2]:
                key = (cfd_id, index, match.lhs_values)
                values = explorer.rhs_values(cfd_id, index, match.lhs_values)
                state["rhs"][key] = values
                state["tuples"][key] = explorer.tuples_for(
                    cfd_id, index, match.lhs_values
                )
                if values:
                    state["tuples"][key + (values[0].value,)] = explorer.tuples_for(
                        cfd_id, index, match.lhs_values, values[0].value
                    )
    return state


class TestResidentExplorerParity:
    @pytest.mark.usefixtures("plan_family")
    def test_navigation_matches_native(self, sqlite_config):
        native_system = _make_system(sqlite_config, use_sql_detection=False)
        resident_system = _make_system(sqlite_config)
        try:
            native = native_system.explorer("customer")
            resident = resident_system.explorer("customer")
            assert resident.source.resident
            assert not native.source.resident
            assert _walk(resident) == _walk(native)
            dirty_tid = native.dirtiest_tuples(top=1)[0][0]
            assert resident.explain_tuple(dirty_tid) == native.explain_tuple(dirty_tid)
        finally:
            native_system.close()
            resident_system.close()

    def test_tuples_page_walks_the_group_in_keyset_pages(self, sqlite_config):
        system = _make_system(sqlite_config)
        try:
            explorer = system.explorer("customer")
            cfd_id = explorer.list_cfds()[0].cfd_id
            matches = explorer.lhs_matches(cfd_id, 0)
            match = max(matches, key=lambda m: m.tuple_count)
            full = explorer.tuples_for(cfd_id, 0, match.lhs_values)
            paged, after_tid = [], -1
            while True:
                page = explorer.tuples_page(
                    cfd_id, 0, match.lhs_values, after_tid=after_tid, page_size=3
                )
                assert len(page) <= 3
                paged.extend(page)
                if len(page) < 3:
                    break
                after_tid = page[-1][0]
            assert paged == full
        finally:
            system.close()

    def test_session_next_page(self, sqlite_config):
        system = _make_system(sqlite_config)
        try:
            session = system.exploration_session("customer")
            with pytest.raises(ExplorerError, match="select an LHS combination"):
                session.next_page()
            cfd = session.options()[0]
            session.select(cfd)
            session.select(0)
            match = max(session.options(), key=lambda m: m.tuple_count)
            session.select(match)
            full = session.explorer.tuples_for(
                cfd.cfd_id, 0, match.lhs_values
            )
            pages = []
            while True:
                page = session.next_page(page_size=4)
                pages.extend(page)
                if len(page) < 4:
                    break
            assert pages == full
            assert session.next_page(page_size=4) == []  # cursor stays exhausted
            session.back()  # rewinds the cursor
            session.select(match)
            assert session.next_page(page_size=4) == full[:4]
        finally:
            system.close()


class TestResidentExplorerPins:
    def test_navigation_ships_no_rows_out_of_the_backend(self, sqlite_config):
        system = _make_system(sqlite_config)
        _pin_backend(system)
        try:
            explorer = system.explorer("customer")
            state = _walk(explorer)
            assert state["cfds"]
            assert any(state["tuples"].values())
            dirty_tid = explorer.dirtiest_tuples(top=1)[0][0]
            assert explorer.explain_tuple(dirty_tid)["vio"] > 0
        finally:
            system.close()

    def test_session_paging_ships_no_rows_out_of_the_backend(self, sqlite_config):
        system = _make_system(sqlite_config)
        _pin_backend(system)
        try:
            session = system.exploration_session("customer")
            cfd = session.options()[0]
            session.select(cfd)
            session.select(0)
            match = max(session.options(), key=lambda m: m.tuple_count)
            session.select(match)
            assert session.next_page(page_size=5)
        finally:
            system.close()


class TestExplorerNeverTouchesTheWorkingRelation:
    def test_navigation_reads_the_backend_alone(self, sqlite_config):
        system = _make_system(sqlite_config)
        _pin_backend(system)
        system.detect("customer")  # sync + cache the report first
        real = system.database.relation("customer")
        system.database._relations["customer"] = ForbiddenRelation("customer")
        try:
            explorer = system.explorer("customer")
            state = _walk(explorer)
            assert state["cfds"]
            session = system.exploration_session("customer")
            cfd = session.options()[0]
            session.select(cfd)
            session.select(0)
            match = max(session.options(), key=lambda m: m.tuple_count)
            session.select(match)
            assert session.next_page(page_size=5)
        finally:
            system.database._relations["customer"] = real
        system.close()
