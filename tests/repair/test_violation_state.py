"""The repair planner keeps its violations between rounds.

``BatchRepairer`` builds one :class:`~repro.core.satisfaction.ViolationState`
per repair over the loaded working relation, re-files each tuple it
changes and files the tuples its source admits, instead of scanning the
working relation for every sub-CFD in every round.  Two things pin it:

* a property: in every round of every repair, over each of the three
  sources (native, backend and scoped under ``restrict_to_tids``), the
  planner's work items equal the ones a fresh ``scan_violations`` per
  sub-CFD of the working relation yields — the per-round collection the
  state replaced, kept here as the oracle;
* the same check on a relation whose repair makes the resident closure
  admit a row (random relations rarely do);
* a counted pin over the paper's CFDs: after the first read, the state
  files only the tuples a change moved, under the sub-CFDs that mention
  the changed attribute, and the rows the closure admitted.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.sqlite import SqliteBackend
from repro.core import satisfaction
from repro.core.satisfaction import ViolationState, scan_violations
from repro.datasets import customer_schema, paper_cfds
from repro.detection.detector import ErrorDetector
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema
from repro.repair.cost import CostModel
from repro.repair.repairer import BatchRepairer
from repro.repair.source import (
    BackendRepairSource,
    NativeRepairSource,
    ScopedRepairSource,
)
from repro.sources.backend import BackendTupleSource
from tests.repair.test_resident_parity import ATTRIBUTES, _draw_cfd, row_strategy
from tests.repair.test_scoped_parity import _apply_random_batch


def _fresh_items(working, cfds, restrict_to_tids):
    """The planner's work items from one fresh scan per sub-CFD (the oracle)."""
    items = []
    for cfd in cfds:
        for sub in cfd.normalize():
            scan = scan_violations(working, sub)
            for tid, pattern_index in scan.single_tuple_violations():
                if restrict_to_tids is not None and tid not in restrict_to_tids:
                    continue
                items.append(("single", sub, sub.patterns[pattern_index], tid))
            for pattern_index, _key, tids in scan.multi_tuple_violation_groups():
                if restrict_to_tids is not None and not restrict_to_tids & set(tids):
                    continue
                items.append(("multi", sub, sub.patterns[pattern_index], tuple(tids)))
    return items


class _CheckedRepairer(BatchRepairer):
    """A planner that checks each round's items against the oracle."""

    def __init__(self, cfds, **kwargs):
        super().__init__(**kwargs)
        self.checked_cfds = cfds
        self.reads = 0

    def _collect_violations(self, working):
        items = super()._collect_violations(working)
        assert items == _fresh_items(working, self.checked_cfds, self.restrict_to_tids)
        self.reads += 1
        return items


SOURCES = ["native", "backend", "scoped"]


@pytest.mark.parametrize("source_kind", SOURCES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_every_round_reads_what_a_fresh_scan_finds(sqlite_options, source_kind, data):
    rows = data.draw(st.lists(row_strategy, min_size=2, max_size=12))
    cfds = [
        _draw_cfd(data, index)
        for index in range(data.draw(st.integers(min_value=1, max_value=3)))
    ]
    weights = {name: data.draw(st.sampled_from([0.5, 1.0, 3.0])) for name in ATTRIBUTES}
    cost_model = CostModel(attribute_weights=weights)
    relation = Relation.from_rows(RelationSchema.of("r", ATTRIBUTES), rows)
    restrict = None
    if source_kind == "scoped":
        restrict = _apply_random_batch(data, relation)
    repairer = _CheckedRepairer(
        cfds, cost_model=cost_model, max_iterations=12, restrict_to_tids=restrict
    )

    if source_kind == "native":
        repair = repairer.repair_with_source(NativeRepairSource(relation), cfds)
    elif source_kind == "scoped":
        repair = repairer.repair_with_source(ScopedRepairSource(relation, restrict), cfds)
    else:
        backend = SqliteBackend(**sqlite_options())
        try:
            backend.add_relation(relation.copy())
            source = BackendRepairSource(
                BackendTupleSource(backend, "r"),
                ErrorDetector(backend).detect("r", cfds),
            )
            repair = repairer.repair_with_source(source, cfds)
        finally:
            backend.close()
    assert repairer.reads >= repair.iterations >= 1


# -- the counted pin -------------------------------------------------------------

#: t0 breaks phi4 (CC 44 in NL) and phi3 (CC 44 group); fixing its CNT to UK
#: moves it into t2's (UK, Z1) group, whose CITY differs, so the closure
#: must admit t2 (clean, so outside the dirty region) before round 2
PIN_ROWS = [
    {"NAME": "t0", "CNT": "NL", "CITY": "EDI", "ZIP": "Z1", "STR": "s1",
     "CC": "44", "AC": "131"},
    {"NAME": "t1", "CNT": "UK", "CITY": "GLA", "ZIP": "Z9", "STR": "s9",
     "CC": "44", "AC": "141"},
    {"NAME": "t2", "CNT": "UK", "CITY": "LDN", "ZIP": "Z1", "STR": "s1",
     "CC": None, "AC": "020"},
    {"NAME": "t3", "CNT": "UK", "CITY": "GLA", "ZIP": "Z9", "STR": "s9",
     "CC": "44", "AC": "141"},
] + [
    {"NAME": f"f{index}", "CNT": "US", "CITY": "NYC", "ZIP": f"U{index}",
     "STR": f"u{index}", "CC": "01", "AC": "212"}
    for index in range(12)
]


def test_rows_the_closure_admits_are_read_in_the_next_round(sqlite_backend_factory):
    """Random relations rarely make the closure admit rows; this one does.

    The dirty region is t0, t1 and t3; the closure admits t2.
    """
    cfds = paper_cfds()
    backend = sqlite_backend_factory()
    backend.add_relation(Relation.from_rows(customer_schema(), PIN_ROWS))
    source = BackendRepairSource(
        BackendTupleSource(backend, "customer"),
        ErrorDetector(backend).detect("customer", cfds),
    )
    repairer = _CheckedRepairer(cfds)
    repair = repairer.repair_with_source(source, cfds)
    assert repairer.reads == repair.iterations == 3
    assert repair.residual_violations == 0
    assert repair.original.tids() == [0, 1, 2, 3]


def test_later_rounds_refile_only_changed_and_admitted_tuples(
    monkeypatch, sqlite_backend_factory
):
    cfds = paper_cfds()
    subs = [sub for cfd in cfds for sub in cfd.normalize()]
    backend = sqlite_backend_factory()
    backend.add_relation(Relation.from_rows(customer_schema(), PIN_ROWS))
    report = ErrorDetector(backend).detect("customer", cfds)
    source = BackendRepairSource(BackendTupleSource(backend, "customer"), report)

    events = []
    built = []
    file_rows = satisfaction._file

    def recording_file(lhs, states, entries):
        entries = list(entries)
        events.append(("file", lhs, len(states), tuple(tid for tid, _row in entries)))
        file_rows(lhs, states, entries)

    init = ViolationState.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recording(kind, original):
        def wrapper(self, *args):
            if kind == "change":
                _working, tid, attribute = args
                events.append(("change", tid, attribute))
            elif kind == "admit":
                events.append(("admit", args[1]))
            else:
                events.append(("read",))
            return original(self, *args)

        return wrapper

    monkeypatch.setattr(satisfaction, "_file", recording_file)
    monkeypatch.setattr(ViolationState, "__init__", counting_init)
    monkeypatch.setattr(
        BackendRepairSource, "note_change",
        recording("change", BackendRepairSource.note_change),
    )
    monkeypatch.setattr(
        BackendRepairSource, "_admit", recording("admit", BackendRepairSource._admit)
    )
    monkeypatch.setattr(
        BatchRepairer, "_collect_violations",
        recording("read", BatchRepairer._collect_violations),
    )
    repair = BatchRepairer().repair_with_source(source, cfds)
    monkeypatch.undo()

    # round 1 fixes t0's CNT, round 2 its CITY against t2, round 3 finds none
    assert repair.residual_violations == 0 and repair.iterations == 3
    assert len(built) == 1  # one state per repair: no round scans again
    first_read = events.index(("read",))
    dirty = tuple(sorted(report.dirty_tids()))
    # the build files the dirty region once per distinct LHS of the subs
    assert events[:first_read] == [
        ("file", ("CNT", "ZIP"), 2, dirty),
        ("file", ("CC",), 3, dirty),
    ]

    later = events[first_read:]
    changes = [event[1:] for event in later if event[0] == "change"]
    admitted = [event[1] for event in later if event[0] == "admit"]
    assert changes and admitted == [2]
    expected = Counter()
    for tid, attribute in changes:
        # one re-file per distinct LHS, under the subs that mention the attribute
        moved = Counter(sub.lhs for sub in subs if attribute in sub.lhs + sub.rhs)
        for lhs, count in moved.items():
            expected[("file", lhs, count, (tid,))] += 1
    # the admitted rows are filed once, under every sub, before the next read
    expected[("file", ("CNT", "ZIP"), 2, tuple(admitted))] += 1
    expected[("file", ("CC",), 3, tuple(admitted))] += 1
    assert Counter(event for event in later if event[0] == "file") == expected
