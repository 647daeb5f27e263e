"""Incremental repair's batch-scoped source against its full-relation oracle.

``IncrementalRepairer.repair_updates`` plans over a
:class:`~repro.repair.source.ScopedRepairSource`, which hands the planner
only the updated tuples and the LHS groups they can break.  The oracle is
the same planner over a full copy of the relation with
``restrict_to_tids`` set to the batch.  For any relation, tableau set, cost
model and update batch the two must agree change for change, with the
same rounds and residual count; and once the relation's hash indexes are
built, the scoped source must never scan or copy the relation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import generate_customers, paper_cfds
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema
from repro.repair.cost import CostModel
from repro.repair.incremental import IncrementalRepairer
from repro.repair.repairer import BatchRepairer
from tests.doubles import CountingRelation
from tests.repair.test_resident_parity import (
    ATTRIBUTES,
    _changes,
    _draw_cfd,
    cell_value,
    row_strategy,
)


def _apply_random_batch(data, relation):
    """Apply 1-4 random inserts, deletes and modifies; return the updated tids."""
    updated = set()
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        live = relation.tids()
        kind = data.draw(st.sampled_from(["insert", "delete", "modify"]))
        if kind == "insert" or not live:
            updated.add(relation.insert(data.draw(row_strategy)))
        elif kind == "delete":
            tid = data.draw(st.sampled_from(live))
            relation.delete(tid)
            updated.discard(tid)
        else:
            tid = data.draw(st.sampled_from(live))
            attribute = data.draw(st.sampled_from(ATTRIBUTES))
            relation.update(tid, {attribute: data.draw(cell_value)})
            updated.add(tid)
    return updated


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_scoped_repair_matches_restricted_oracle(data):
    rows = data.draw(st.lists(row_strategy, min_size=2, max_size=12))
    cfds = [
        _draw_cfd(data, index)
        for index in range(data.draw(st.integers(min_value=1, max_value=3)))
    ]
    weights = {
        name: data.draw(st.sampled_from([0.5, 1.0, 3.0])) for name in ATTRIBUTES
    }
    cost_model = CostModel(attribute_weights=weights)
    relation = Relation.from_rows(RelationSchema.of("r", ATTRIBUTES), rows)
    updated = _apply_random_batch(data, relation)
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        cost_model.protect_cell(
            data.draw(st.integers(min_value=0, max_value=len(rows) + 3)),
            data.draw(st.sampled_from(ATTRIBUTES)),
        )

    oracle = BatchRepairer(
        cost_model=cost_model, max_iterations=12, restrict_to_tids=updated
    ).repair(relation, cfds)
    scoped = IncrementalRepairer(
        cost_model=cost_model, max_iterations=12
    ).repair_updates(relation, cfds, updated)

    assert _changes(scoped) == _changes(oracle)
    assert scoped.total_cost == pytest.approx(oracle.total_cost)
    assert scoped.iterations == oracle.iterations
    assert scoped.residual_violations == oracle.residual_violations
    assert scoped.source == "scoped"
    # the working set holds every updated tuple, and agrees with the
    # oracle's repaired relation on every tuple it holds
    assert updated <= set(scoped.original.tids())
    oracle_rows = dict(oracle.repaired.rows())
    for tid, row in scoped.repaired.rows():
        assert row == oracle_rows[tid]


class TestScopedReads:
    def _relation(self):
        """A clean relation and UK tuples that share their postal code."""
        relation = generate_customers(200, seed=29)
        partnered = [
            tid
            for tid, row in relation.rows()
            if row["CNT"] == "UK"
            and len(relation.lookup(("CNT", "ZIP"), (row["CNT"], row["ZIP"]))) > 1
        ]
        return relation, partnered

    def test_warm_repair_neither_scans_nor_copies_the_relation(self):
        relation, partnered = self._relation()
        cfds = paper_cfds()
        repairer = IncrementalRepairer()
        # the first repair builds the relation's hash indexes on each LHS
        relation.update(partnered[0], {"CITY": "Nowhere"})
        repairer.repair_updates(relation, cfds, [partnered[0]])
        counting = CountingRelation(relation)
        counting.update(partnered[-1], {"CITY": "Elsewhere", "STR": "No Street"})
        repair = repairer.repair_updates(counting, cfds, [partnered[-1]])
        assert counting.calls == {"rows": 0, "copy": 0}
        assert repair.residual_violations == 0
        assert {change.attribute for change in repair.changes} == {"CITY", "STR"}
        # the working set is the updated tuple and its groups, not the
        # relation, and it carries none of the relation's hash indexes
        assert len(repair.original) < len(relation) // 4
        assert repair.repaired.index_on(("CNT", "ZIP")) is None
        assert relation.index_on(("CNT", "ZIP")) is not None

    def test_scoped_repair_leaves_the_relation_untouched(self):
        relation, partnered = self._relation()
        relation.update(partnered[0], {"CITY": "Nowhere"})
        before = dict(relation.rows())
        repair = IncrementalRepairer().repair_updates(
            relation, paper_cfds(), [partnered[0]]
        )
        assert repair.changes
        assert dict(relation.rows()) == before
