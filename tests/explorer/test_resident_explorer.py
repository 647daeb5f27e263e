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

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Semandaq
from repro.datasets import generate_customers, inject_noise, paper_cfds
from repro.engine.types import RelationSchema
from repro.errors import ExplorerError
from repro.explorer.navigation import LhsMatch
from repro.sources.backend import BackendTupleSource
from tests.doubles import ForbiddenReadBackend, ForbiddenRelation
from tests.tableaux import draw_cfd

ATTRIBUTES = ["A", "B", "C", "D"]
ROW = st.fixed_dictionaries(
    {name: st.sampled_from(["a", "b", "c", None]) for name in ATTRIBUTES}
)


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


def _drain(explorer, cfd_id, index, page_size):
    """Every page of one pattern's LHS listing, the last one short."""
    pages, after = [], None
    while True:
        page = explorer.lhs_matches(cfd_id, index, after=after, page_size=page_size)
        assert len(page) <= page_size
        pages.append(page)
        if len(page) < page_size:
            return pages
        after = page[-1]


def _listing(rows, cfd, index, report):
    """One pattern's LHS listing, from the definition.

    The groups of the tuples the pattern applies to, each with its size
    and its tuples involved in a violation of the CFD: the violating
    groups first by (-violating, key), then the clean ones by key.
    """
    dirty = {
        tid
        for violation in report.violations
        if violation.cfd_id == cfd.identifier
        for tid in violation.tids
    }
    sizes, violating = Counter(), Counter()
    for tid, row in rows:
        if cfd.matchers[index].applies_to(row):
            key = tuple(row[attr] for attr in cfd.lhs)
            sizes[key] += 1
            violating[key] += tid in dirty
    ranked = sorted((-violating[key], key) for key in sizes if violating[key])
    ranked += sorted((0, key) for key in sizes if not violating[key])
    return [LhsMatch(key, sizes[key], -rank) for rank, key in ranked]


def _walk(explorer, page_size=50):
    """Every navigation answer of the Fig. 2 drill-down, as one structure.

    Each pattern's LHS listing is drained page by page.
    """
    state = {"cfds": explorer.list_cfds(), "patterns": {}, "lhs": {}, "rhs": {},
             "tuples": {}, "dirtiest": explorer.dirtiest_tuples()}
    for summary in state["cfds"]:
        cfd_id = summary.cfd_id
        state["patterns"][cfd_id] = explorer.patterns_for(cfd_id)
        for pattern in state["patterns"][cfd_id]:
            index = pattern.pattern_index
            pages = _drain(explorer, cfd_id, index, page_size)
            state["lhs"][(cfd_id, index)] = pages
            for match in [match for page in pages for match in page][:2]:
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
            rows = list(native_system.database.relation("customer").stored_rows())
            for page_size in range(1, 8):
                walked = _walk(native, page_size)
                assert _walk(resident, page_size) == walked
                for cfd in native.cfds:
                    for index in range(len(cfd.patterns)):
                        pages = walked["lhs"][(cfd.identifier, index)]
                        listing = [match for page in pages for match in page]
                        assert listing == _listing(rows, cfd, index, native.report)
            dirty_tid = native.dirtiest_tuples(top=1)[0][0]
            assert resident.explain_tuple(dirty_tid) == native.explain_tuple(dirty_tid)
        finally:
            native_system.close()
            resident_system.close()

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_lhs_pages_match_native_and_the_definition(self, sqlite_config, data):
        rows = data.draw(st.lists(ROW, min_size=1, max_size=16))
        cfds = [
            draw_cfd(data, index, ATTRIBUTES)
            for index in range(data.draw(st.integers(min_value=1, max_value=2)))
        ]
        page_size = data.draw(st.integers(min_value=1, max_value=7))
        systems = []
        for use_sql in (False, True):
            system = Semandaq(
                config=sqlite_config(
                    use_sql_detection=use_sql, check_consistency_on_add=False
                )
            )
            systems.append(system)
            system.register_relation(RelationSchema.of("r", ATTRIBUTES), rows)
            system.add_cfds(cfds)
        try:
            native, resident = (system.explorer("r") for system in systems)
            relation = list(systems[0].database.relation("r").stored_rows())
            for cfd in native.cfds:
                for index in range(len(cfd.patterns)):
                    pages = _drain(native, cfd.identifier, index, page_size)
                    assert _drain(resident, cfd.identifier, index, page_size) == pages
                    listing = [match for page in pages for match in page]
                    assert len({match.lhs_values for match in listing}) == len(listing)
                    assert listing == _listing(relation, cfd, index, native.report)
        finally:
            for system in systems:
                system.close()

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


class TestLhsPages:
    """The LHS listing costs its page, not the relation's groups.

    ``r(A, B)`` has 300 groups of two tuples under ``[A] -> [B]``; five of
    them disagree on B, and one of those also holds a NULL-B member.
    """

    VIOLATING = ("k007", "k042", "k099", "k150", "k299")

    def _system(self, sqlite_config, sql=True):
        rows = []
        for index in range(300):
            key = f"k{index:03d}"
            rows.append({"A": key, "B": "x"})
            rows.append({"A": key, "B": "y" if key in self.VIOLATING else "x"})
        rows.append({"A": "k042", "B": None})
        system = Semandaq(config=sqlite_config(use_sql_detection=sql))
        system.register_relation(RelationSchema.of("r", ["A", "B"]), rows)
        system.add_cfd("r: [A=_] -> [B=_]")
        return system

    def test_the_first_page_returns_no_more_rows_than_its_histograms(
        self, sqlite_config, monkeypatch
    ):
        system = self._system(sqlite_config)
        try:
            explorer = system.explorer("r")
            cfd_id = explorer.list_cfds()[0].cfd_id
            explorer.patterns_for(cfd_id)  # fetches the dirty region
            returned = []
            execute = BackendTupleSource._execute

            def counting(source, query):
                rows = execute(source, query)
                returned.append(len(rows))
                return rows

            monkeypatch.setattr(BackendTupleSource, "_execute", counting)
            page = explorer.lhs_matches(cfd_id, 0)
            monkeypatch.undo()
            # the violating groups' B histograms (x, y and NULL for k042),
            # then the clean groups' counts up to the page's last key
            histograms = 2 * 5 + 1
            assert sum(returned) <= histograms + 50, returned
            assert [match.lhs_values[0] for match in page[:5]] == list(self.VIOLATING)
            assert len(page) == 50 and not any(m.violating_tuples for m in page[5:])
        finally:
            system.close()

    def test_a_run_of_violating_keys_costs_a_statement_per_page_of_them(
        self, sqlite_config, monkeypatch
    ):
        # 200 groups of [A] -> [B]; k025..k124 disagree on B.  With pages
        # of 7 the 100 violating groups fill 14 pages and 2 entries of the
        # 15th; the clean groups k000..k024 then leave the 18th page one
        # entry short of full right before the run.
        page_size, run = 7, range(25, 125)
        rows = []
        for index in range(200):
            key = f"k{index:03d}"
            rows.append({"A": key, "B": "x"})
            rows.append({"A": key, "B": "y" if index in run else "x"})
        system = Semandaq(config=sqlite_config())
        system.register_relation(RelationSchema.of("r", ["A", "B"]), rows)
        cfd = system.add_cfd("r: [A=_] -> [B=_]")
        try:
            explorer = system.explorer("r")
            explorer.patterns_for(cfd.identifier)  # fetches the dirty region
            statements = []
            execute = BackendTupleSource._execute

            def counting(source, query):
                statements[-1] += query.kind == "attr_freq"
                return execute(source, query)

            monkeypatch.setattr(BackendTupleSource, "_execute", counting)
            pages, after = [], None
            while not pages or len(pages[-1]) == page_size:
                statements.append(0)
                pages.append(explorer.lhs_matches(cfd.identifier, 0, after, page_size))
                after = pages[-1][-1] if pages[-1] else None
            monkeypatch.undo()
            report = system.last_report("r")
            stored = list(system.database.relation("r").stored_rows())
            assert [m for page in pages for m in page] == _listing(
                stored, cfd, 0, report
            )
            assert max(statements) > 1  # some page crossed the run
            assert max(statements) <= 1 + len(run) / page_size, statements
        finally:
            system.close()

    @pytest.mark.parametrize("use_sql", [True, False], ids=["sql", "native"])
    def test_a_null_rhs_member_counts_in_the_group_size(self, sqlite_config, use_sql):
        system = self._system(sqlite_config, use_sql)
        try:
            explorer = system.explorer("r")
            cfd = explorer.cfds[0]
            (match,) = [
                match
                for match in explorer.lhs_matches(cfd.identifier, 0)
                if match.lhs_values == ("k042",)
            ]
            assert match.violating_tuples == 2
            assert match.tuple_count == 3
            assert explorer.source.pattern_group_freq(cfd, 0)[("k042",)] == 3
        finally:
            system.close()

    @pytest.mark.parametrize("use_sql", [True, False], ids=["sql", "native"])
    def test_more_options_continues_and_navigation_rewinds(
        self, sqlite_config, use_sql
    ):
        system = self._system(sqlite_config, use_sql)
        try:
            session = system.exploration_session("r")
            cfd = session.options()[0]
            session.select(cfd)
            first = session.select(0)
            drained = _drain(session.explorer, cfd.cfd_id, 0, 50)
            listing = [match for page in drained for match in page]
            assert len(listing) == 300
            assert first == listing[:50]
            pages = [first]
            while len(pages[-1]) == 50:
                pages.append(session.more_options())
            assert [m for page in pages for m in page] == listing
            assert session.more_options() == []  # the cursor stays exhausted
            assert session.more_options(page_size=7) == []

            session.back()  # to the pattern level: rewinds
            assert session.select(0) == listing[:50]
            assert session.more_options(page_size=7) == listing[50:57]
            session.select(listing[0])  # to the RHS level, and back: rewinds
            assert session.back() == listing[:50]
            assert session.more_options() == listing[50:100]
            session.reset()
            with pytest.raises(ExplorerError, match="LHS level"):
                session.more_options()
        finally:
            system.close()
