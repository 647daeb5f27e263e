"""Shared regression tableaux pinned by more than one suite.

The NULL-cell, overlapping-pattern and two-wildcard-RHS tableaux are
asserted both by the multi-path parity suite
(``tests/backends/test_parity.py``) and by the incremental detector's
update sequences (``tests/detection/test_incremental.py``); keeping one
copy here means a semantics change cannot silently leave one suite
pinning stale expectations.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.cfd import CFD
from repro.core.parser import parse_cfd
from repro.core.pattern import PatternTuple
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema


def null_cell_relation() -> Relation:
    """Data with NULL LHS and RHS cells in every interesting position."""
    return Relation.from_rows(
        RelationSchema.of("r", ["A", "B", "C"]),
        [
            {"A": "x", "B": "1", "C": "c1"},
            {"A": "x", "B": "1", "C": "c2"},   # genuine multi-tuple violation
            {"A": None, "B": "1", "C": "c1"},
            {"A": None, "B": "1", "C": "c3"},  # NULL LHS: in no group
            {"A": "y", "B": None, "C": "c1"},
            {"A": "y", "B": None, "C": "c2"},  # NULL second LHS attribute
            {"A": "z", "B": "2", "C": None},
            {"A": "z", "B": "2", "C": "c5"},   # NULL RHS member: no disagreement
            {"A": "w", "B": "3", "C": None},   # NULL RHS vs constant pattern
        ],
    )


#: the CFD the NULL tableau is checked against: one constant-RHS pattern
#: (hit by the NULL-RHS tuple) and one all-wildcard pattern (the FD part)
NULL_CELL_CFD = CFD(
    relation="r",
    lhs=("A", "B"),
    rhs=("C",),
    patterns=(
        PatternTuple.of({"A": "w", "B": "_", "C": "c9"}),
        PatternTuple.of({"A": "_", "B": "_", "C": "_"}),
    ),
    name="phi_null",
)


def overlap_relation() -> Relation:
    """LHS groups covered by one or both of two overlapping patterns."""
    return Relation.from_rows(
        RelationSchema.of("r", ["A", "B", "C"]),
        [
            {"A": "x", "B": "1", "C": "c1"},
            {"A": "x", "B": "1", "C": "c2"},  # violates patterns 0 and 1
            {"A": "y", "B": "1", "C": "c1"},
            {"A": "y", "B": "1", "C": "c3"},  # violates pattern 1 only
            {"A": "x", "B": "2", "C": "c1"},
            {"A": "x", "B": "2", "C": "c1"},  # agrees: no violation
        ],
    )


#: two wildcard-RHS patterns, the first a specialisation of the second: a
#: group both cover is reported once, under the lower pattern index
OVERLAP_CFD = CFD(
    relation="r",
    lhs=("A", "B"),
    rhs=("C",),
    patterns=(
        PatternTuple.of({"A": "x", "B": "_", "C": "_"}),
        PatternTuple.of({"A": "_", "B": "_", "C": "_"}),
    ),
    name="phi_overlap",
)


def two_rhs_relation() -> Relation:
    """One disagreement per wildcard RHS attribute, in different groups."""
    return Relation.from_rows(
        RelationSchema.of("r", ["A", "B", "C"]),
        [
            {"A": "x", "B": "b1", "C": "c1"},
            {"A": "x", "B": "b1", "C": "c2"},  # B agrees, C disagrees
            {"A": "y", "B": "b1", "C": "c1"},
            {"A": "y", "B": "b2", "C": "c1"},  # B disagrees, C agrees
        ],
    )


#: a merged CFD with two wildcard RHS attributes: a ``Q_V`` covering only
#: the first would miss the disagreement on the second
TWO_RHS_CFD = CFD(
    relation="r",
    lhs=("A",),
    rhs=("B", "C"),
    patterns=(PatternTuple.of({"A": "_", "B": "_", "C": "_"}),),
    name="phi_two_rhs",
)


def draw_cfd(data, index, attributes):
    """A random CFD over ``attributes``: 1-2 LHS, 1-2 RHS, 1-2 pattern rows.

    Each pattern cell is the wildcard or one of the constants ``a``/``b``;
    ``data`` is hypothesis's ``st.data()`` object.
    """
    lhs = data.draw(
        st.lists(st.sampled_from(attributes), min_size=1, max_size=2, unique=True)
    )
    remaining = [name for name in attributes if name not in lhs]
    rhs = data.draw(
        st.lists(st.sampled_from(remaining), min_size=1, max_size=2, unique=True)
    )
    patterns = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        cells = []
        for side in (lhs, rhs):
            rendered = []
            for name in side:
                value = data.draw(st.sampled_from(["_", "a", "b"]))
                rendered.append(
                    f"{name}={value}" if value == "_" else f"{name}='{value}'"
                )
            cells.append(", ".join(rendered))
        patterns.append(f"[{cells[0]}] -> [{cells[1]}]")
    return parse_cfd(f"r: {' ; '.join(patterns)}", name=f"cfd{index}")
