"""Property: the backend-resident repair source is change-for-change identical
to the native full-relation repairer.

The planner half of the split (``BatchRepairer``) is deterministic, so the
whole refactor reduces to one oracle statement: for *any* relation (NULL cells
included), *any* tableau set (overlapping patterns, multi-attribute and
wildcard RHS, constant patterns) and *any* cost model (skewed attribute
weights, protected cells), ``repair_with_source(BackendRepairSource(...))``
must produce exactly the change list, cost and residual count of
``repair(relation, ...)`` — on the SQLite backend.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.sqlite import SqliteBackend
from repro.core.parser import parse_cfd
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema
from repro.repair.cost import CostModel
from repro.repair.repairer import BatchRepairer
from repro.repair.source import BackendRepairSource

ATTRIBUTES = ["A", "B", "C", "D"]

cell_value = st.sampled_from(["a", "b", None])
pattern_value = st.sampled_from(["_", "a", "b"])
row_strategy = st.fixed_dictionaries({name: cell_value for name in ATTRIBUTES})


def _draw_cfd(data, index):
    lhs = data.draw(
        st.lists(st.sampled_from(ATTRIBUTES), min_size=1, max_size=2, unique=True)
    )
    remaining = [name for name in ATTRIBUTES if name not in lhs]
    rhs = data.draw(st.lists(st.sampled_from(remaining), min_size=1, max_size=2, unique=True))
    patterns = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        cells = []
        for side in (lhs, rhs):
            rendered = []
            for name in side:
                value = data.draw(pattern_value)
                rendered.append(f"{name}={value}" if value == "_" else f"{name}='{value}'")
            cells.append(", ".join(rendered))
        patterns.append(f"[{cells[0]}] -> [{cells[1]}]")
    return parse_cfd(f"r: {' ; '.join(patterns)}", name=f"cfd{index}")


def _changes(repair):
    return [
        (change.tid, change.attribute, change.old_value, change.new_value, change.cost)
        for change in repair.changes
    ]


@pytest.mark.usefixtures("plan_family")
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_resident_repair_matches_native_oracle(data):
    rows = data.draw(st.lists(row_strategy, min_size=2, max_size=12))
    cfds = [
        _draw_cfd(data, index)
        for index in range(data.draw(st.integers(min_value=1, max_value=3)))
    ]
    weights = {
        name: data.draw(st.sampled_from([0.5, 1.0, 3.0])) for name in ATTRIBUTES
    }
    cost_model = CostModel(attribute_weights=weights)
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        cost_model.protect_cell(
            data.draw(st.integers(min_value=0, max_value=len(rows) - 1)),
            data.draw(st.sampled_from(ATTRIBUTES)),
        )

    schema = RelationSchema.of("r", ATTRIBUTES)
    relation = Relation.from_rows(schema, rows)
    native = BatchRepairer(cost_model=cost_model, max_iterations=12).repair(
        relation, cfds
    )

    backend = SqliteBackend()
    try:
        backend.add_relation(relation.copy())
        source = BackendRepairSource(backend, "r")
        resident = BatchRepairer(
            cost_model=cost_model, max_iterations=12
        ).repair_with_source(source, cfds)

        assert _changes(resident) == _changes(native)
        assert resident.total_cost == pytest.approx(native.total_cost)
        assert resident.residual_violations == native.residual_violations
        assert resident.iterations == native.iterations
        assert resident.source == "backend"
        # the partial view agrees with the oracle's repaired relation on
        # every tuple it fetched
        repaired_rows = dict(native.repaired.rows())
        for tid, row in resident.repaired.rows():
            assert row == repaired_rows[tid]
    finally:
        backend.close()
