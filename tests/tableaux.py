"""Shared regression tableaux pinned by more than one suite.

The NULL-cell tableau is asserted both by the four-path parity suite
(``tests/backends/test_parity.py``) and by the incremental ``sql_delta``
suite (``tests/detection/test_sql_delta.py``); keeping one copy here means
a NULL-semantics change cannot silently leave one suite pinning stale
expectations.
"""

from __future__ import annotations

from repro.core.cfd import CFD
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
