"""Integration tests replaying the demo scenarios of the paper (Figs. 2-5).

Each test corresponds to one demo walkthrough and asserts the *content* that
the corresponding screenshot illustrates, end to end through the public
Semandaq API.
"""

import pytest

from repro import Semandaq
from repro.audit.metrics import Cleanliness
from repro.core.satisfaction import satisfies_all
from repro.datasets import paper_cfds, paper_example_relation


@pytest.fixture
def demo_system(sqlite_config):
    with Semandaq(sqlite_config()) as semandaq:
        semandaq.register_relation(paper_example_relation())
        semandaq.add_cfds(paper_cfds())
        semandaq.detect("customer")
        yield semandaq


class TestFig2DataExploration:
    """Fig. 2: select an FD, a pattern tuple, an LHS match, then RHS values."""

    def test_drill_down_reaches_the_conflicting_streets(self, demo_system):
        session = demo_system.exploration_session("customer")
        # Left table: the CFDs, with violation counts guiding the user to phi2.
        cfd_options = {option.cfd_id: option for option in session.options()}
        assert cfd_options["phi2"].violating_tuples > 0
        # Second table: phi2's pattern tuples ([UK, _, _]).
        patterns = session.select("phi2")
        assert patterns[0].rendered["CNT"] == "'UK'"
        # Third table: LHS matches; the violating UK postcode is ranked first.
        lhs_matches = session.select(patterns[0])
        assert lhs_matches[0].lhs_values == ("UK", "EH4 1DT")
        assert lhs_matches[0].violating_tuples == 2
        # Fourth table: the distinct RHS (street) values for that postcode.
        rhs_values = session.select(lhs_matches[0])
        assert {entry.value for entry in rhs_values} == {"Mayfield Rd", "Crichton St"}
        # Final step: the tuples carrying one of the conflicting values.
        tuples = session.select(rhs_values[0])
        assert len(tuples) == 1

    def test_reverse_exploration_explains_why_a_tuple_is_dirty(self, demo_system):
        explorer = demo_system.explorer("customer")
        explanation = explorer.explain_tuple(4)  # Anna
        violated = {entry["cfd"] for entry in explanation["relevant_cfds"] if entry["violated"]}
        assert "phi4" in violated and "phi3" in violated
        assert explanation["vio"] == 4


class TestFig3QualityMap:
    """Fig. 3: per-tuple vio(t) shown as a colour map."""

    def test_quality_map_shades_track_vio(self, demo_system):
        audit = demo_system.audit("customer")
        quality_map = audit.quality_map
        report = demo_system.last_report("customer")
        vio = report.vio()
        # Clean tuples are in the lightest bucket, the dirtiest tuple in the darkest used.
        assert quality_map.bucket_of(2) == 0
        dirtiest_tid = max(vio, key=vio.get)
        assert quality_map.bucket_of(dirtiest_tid) == max(quality_map.buckets.values())
        # Monotone: more violations never means a lighter shade.
        for tid_a in vio:
            for tid_b in vio:
                if vio[tid_a] > vio[tid_b]:
                    assert quality_map.bucket_of(tid_a) >= quality_map.bucket_of(tid_b)


class TestFig4QualityReport:
    """Fig. 4: verified/probably/arguably clean percentages and the violations pie."""

    def test_report_reproduces_categories(self, demo_system):
        audit = demo_system.audit("customer")
        pie = audit.pie_chart()
        assert pie[Cleanliness.VERIFIED.value] == 2   # Joe, Mary
        assert pie[Cleanliness.ARGUABLY.value] == 1   # Bob
        assert pie[Cleanliness.DIRTY.value] == 3      # Mike, Rick, Anna
        bar = audit.bar_chart()
        # STR is the dirtiest attribute in the bar chart.
        assert audit.worst_attributes(top=1)[0][0] == "STR"
        assert set(bar) == set(paper_example_relation().attribute_names)

    def test_statistics_summarise_multi_tuple_violations(self, demo_system):
        audit = demo_system.audit("customer")
        assert audit.statistics["multi_violations"] == 2
        assert audit.statistics["max_group_size"] == 4


class TestFig5CleansingReview:
    """Fig. 5: modified values highlighted, alternatives ranked, user edits re-checked."""

    def test_review_cycle(self, demo_system):
        repair = demo_system.repair("customer")
        review = demo_system.review("customer")
        # Modified values are tracked per tuple, like the red highlights.
        assert set(review.modified_tuples()) == repair.changed_tids()
        # Each modified cell with alternatives ranks them by cost.
        for change in review.modified_cells():
            costs = [cost for _value, cost in change.alternatives]
            assert costs == sorted(costs)
        # The user overrides one change; the system immediately reports the
        # conflicts that the new value (re-)introduces.
        street_changes = [c for c in review.modified_cells() if c.attribute == "STR"]
        if street_changes:
            change = street_changes[0]
            conflicts = review.override(change.tid, change.attribute, change.old_value)
            assert any(note.kind == "multi" for note in conflicts)
        # Accepting the repair and applying it leaves a consistent database.
        demo_system.apply_repair("customer")
        relation = demo_system.database.relation("customer")
        assert satisfies_all(relation, paper_cfds())
        assert demo_system.detect("customer").is_clean()
