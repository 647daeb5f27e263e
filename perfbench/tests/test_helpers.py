"""Tests of the benchmark's own helpers (no program code is exercised).

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from spans import (  # noqa: E402
    ROOT_LAYER,
    Recorder,
    Span,
    check_partition,
    self_times,
    summarise,
    union_length,
    value_under,
)
from stats import OpenLoop, Tally, fast, percentile, tail  # noqa: E402
from data import UpdateStream, dirty_customers  # noqa: E402


# -- percentile rule ---------------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(samples, 99) == 99
    assert percentile([7.0], 99) == 7.0


def test_tail_picks_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(19))) is None  # median has 9.5 beyond
    assert tail(list(range(20)))[0] == 50.0
    assert tail(list(range(99)))[0] == 50.0  # p90 would have 9.9 beyond
    assert tail(list(range(100)))[:1] == (90.0,)
    assert tail(list(range(999)))[0] == 90.0
    pct, value, count = tail([float(i) for i in range(1000)])
    assert (pct, value, count) == (99.0, 989.0, 1000)
    assert tail(list(range(10000)))[0] == 99.9


def test_fast_is_the_lower_decile():
    assert fast(list(range(1, 101))) == 10
    assert fast([5.0, 3.0, 9.0, 4.0, 8.0, 6.0]) == 3.0  # under ten samples: the minimum
    assert fast([3.0, 1.0] + [9.0] * 9) == 3.0  # 11 samples: the second fastest


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


# -- union and self time -------------------------------------------------------------


def test_union_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(0, 2), (1, 3)]) == 3
    assert union_length([(0, 10), (2, 3), (4, 5)]) == 10
    assert union_length([(5, 6), (0, 1), (0.5, 2)]) == 3


def _tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping, e.g. two
    # threads), and a grandchild [1, 2] under the first child
    return [
        Span("call", ROOT_LAYER, 0.0, 10.0),
        Span("execute", "backends", 1.0, 4.0, parent=0, value=5),
        Span("execute", "backends", 3.0, 6.0, parent=0, value=7),
        Span("acquire", "backends.pool", 1.0, 2.0, parent=1),
    ]


def test_self_time_subtracts_union_of_children():
    selfs = self_times(_tree())
    assert selfs == [5.0, 2.0, 3.0, 1.0]


def test_children_are_clipped_to_the_parent():
    spans = [Span("call", ROOT_LAYER, 0.0, 2.0), Span("late", "x", 1.0, 5.0, parent=0)]
    assert self_times(spans)[0] == 1.0


def test_partition_holds_for_nested_spans_and_fails_when_parts_exceed_wall():
    spans = [
        Span("call", ROOT_LAYER, 0.0, 10.0),
        Span("detect", "detection", 1.0, 8.0, parent=0),
        Span("execute", "backends", 2.0, 5.0, parent=1),
    ]
    assert check_partition(spans, self_times(spans))
    assert not check_partition(spans, [5.0, 5.0, 3.0])


def test_summary_counts_outermost_totals_and_values():
    spans = _tree() + [Span("execute", "backends", 7.0, 8.0, parent=2)]
    summary = summarise(spans)
    execute = summary["backends.execute"]
    assert execute["calls"] == 3
    # the nested execute lies inside another execute: not added to the total
    assert execute["total_ms"] == pytest.approx(6000.0)
    assert summary[f"{ROOT_LAYER}.call"]["self_ms"] == pytest.approx(5000.0)
    assert value_under(spans, "backends.execute", ROOT_LAYER) == 12


def test_recorder_nests_spans_only_inside_a_root():
    recorder = Recorder()

    class Layer:
        def work(self, n):
            return list(range(n))

    original = Layer.work
    recorder.install([(__name__, "Missing", ("x",), "l", "n", None)])
    assert recorder.missing
    Layer.work = recorder._wrap(original, "layer", "work", len)
    Layer().work(3)  # outside any root: not recorded
    assert recorder.spans == []
    with recorder.root("call"):
        Layer().work(4)
    root, child = recorder.spans
    assert child.parent == 0 and child.value == 4
    assert root.request == child.request == 1
    assert check_partition(recorder.spans, self_times(recorder.spans))


# -- open-loop accounting --------------------------------------------------------------


def test_due_times_follow_the_rate_not_completions():
    loop = OpenLoop(rate=20.0, start=100.0)
    assert loop.due(0) == 100.0
    assert loop.due(20) == pytest.approx(101.0)
    assert loop.count_until(101.0) == 20
    assert loop.count_until(101.01) == 21
    assert loop.count_until(99.0) == 0


def test_latency_runs_from_due_time_and_lateness_only_for_idle_workers():
    loop = OpenLoop(rate=10.0, start=0.0)
    # idle worker picked it up early and woke 2 ms late
    loop.record(due=1.0, picked=0.9, began=1.002, done=1.012)
    # busy worker: request waited in the queue; no generator lateness
    loop.record(due=1.1, picked=1.15, began=1.15, done=1.16)
    assert loop.latencies == pytest.approx([0.012, 0.06])
    assert loop.lateness == pytest.approx([0.002])


def test_keeps_up_needs_tail_under_limit_and_no_backlog():
    loop = OpenLoop(rate=10.0, start=0.0)
    loop.latencies = [0.01] * 30
    assert loop.keeps_up(limit=0.05, backlog=1, workers=1)
    assert not loop.keeps_up(limit=0.05, backlog=2, workers=1)
    loop.latencies = [0.01] * 20 + [0.2] * 10  # 30 samples: the median decides
    assert loop.keeps_up(limit=0.05, backlog=0, workers=1)
    loop.latencies = [0.01] * 85 + [0.2] * 15  # 100 samples: p90 decides
    assert not loop.keeps_up(limit=0.05, backlog=0, workers=1)


# -- failure counting ----------------------------------------------------------------


def test_tally_counts_exceptions_and_mismatches():
    tally = Tally()
    assert tally.run(lambda: 3) == 3

    def boom():
        raise TimeoutError("pool")

    assert tally.run(boom) is None
    tally.check(True, "oracle")
    tally.check(False, "oracle")
    assert (tally.attempted, tally.failed) == (2, 2)
    assert tally.errors == {"TimeoutError": 1, "oracle": 1}
    assert tally.error_rate == 1.0
    assert Tally().error_rate == 0.0


# -- update stream -------------------------------------------------------------------


def test_update_stream_batches_have_a_fixed_mix_and_one_value_order_tie():
    rows = dirty_customers(600, 3)
    tids = list(range(1, len(rows) + 1))
    stream = UpdateStream(rows, tids, len(rows), 3)
    next_tid = len(rows) + 1
    for _ in range(5):
        pairs = {tid: code for code, members in stream.members.items()
                 if len(members) == 2 for tid in members}
        batch = stream.next_batch()
        kinds = [kind for kind, _ in batch]
        assert (kinds.count("modify"), kinds.count("insert"), kinds.count("delete")) == (11, 3, 2)
        touched = [payload[0] if kind == "modify" else payload
                   for kind, payload in batch if kind != "insert"]
        assert len(set(touched)) == len(touched)
        ties = [tid for kind, payload in batch if kind == "modify"
                for tid, change in [payload]
                if tid in pairs and change["CITY"] < stream.city[pairs[tid]]]
        assert ties
        inserts = [payload for kind, payload in batch if kind == "insert"]
        stream.inserted(list(range(next_tid, next_tid + len(inserts))), inserts)
        next_tid += len(inserts)


def test_update_stream_is_seeded():
    rows = dirty_customers(300, 5)
    tids = list(range(1, len(rows) + 1))
    first, second = (UpdateStream(rows, tids, len(rows), 5) for _ in range(2))
    assert first.next_batch() == second.next_batch()
