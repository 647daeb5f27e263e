"""The statement contract of the detection SQL generator.

Every statement :class:`DetectionSqlGenerator` builds must

* bind its values — pattern constants and caller data (tids, group keys,
  RHS filters, page cursors) travel as ``?`` parameters, never as inline
  literals, so the ``?`` count equals the number of values bound;
* carry a statement-kind tag from the documented set, which telemetry
  buckets ``statement_ms.*`` under;
* run on SQLite exactly as built.

One case per builder.  The pattern constants of the CFD below are
sentinels: finding one in the SQL text means a value was rendered inline.
"""

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import pytest

from repro.backends import SqliteBackend
from repro.core.cfd import CFD
from repro.core.pattern import PatternTuple
from repro.detection.sqlgen import DetectionSqlGenerator, SqlQuery
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema

SCHEMA = RelationSchema.of("r", ["A", "B", "C", "D"])

#: the pattern constants; none may appear in any generated SQL text
SENTINELS = ("acme", "cval", "zeta")

CFD_R = CFD(
    relation="r",
    lhs=("A", "B"),
    rhs=("C",),
    patterns=(
        PatternTuple.of({"A": "acme", "B": "_", "C": "cval"}),
        PatternTuple.of({"A": "_", "B": "_", "C": "_"}),
        PatternTuple.of({"A": "zeta", "B": "_", "C": "_"}),
    ),
    name="phi_contract",
)

ROWS = [
    {"A": "acme", "B": "1", "C": "cval", "D": "d0"},
    {"A": "acme", "B": "1", "C": "other", "D": "d1"},  # violates pattern 0
    {"A": "zeta", "B": "2", "C": "x", "D": "d2"},
    {"A": "zeta", "B": "2", "C": "y", "D": "d3"},  # disagrees with tid 2
    {"A": "free", "B": "3", "C": None, "D": "d4"},
]

KEYS = [("acme", "1"), ("zeta", "2")]
TIDS = [1, 3]

#: the statement kinds documented in benchmarks/README.md
STATEMENT_KINDS = {
    "q_c_sargable",
    "q_window",
    "covering_members",
    "lhs_values",
    "value_freq",
    "group_stats",
    "row_fetch",
    "majority_value",
    "attr_freq",
    "page_fetch",
}

Bound = Tuple[SqlQuery, Tuple]


def _flat(keys: Sequence[Tuple]) -> Tuple:
    return DetectionSqlGenerator.flatten_group_keys(keys)


def _plans(queries: List[SqlQuery]) -> List[Bound]:
    """Fully-bound statements: the query carries every value it needs."""
    return [(query, tuple(query.parameters)) for query in queries]


def _caller_bound(query: SqlQuery, *values) -> List[Bound]:
    """A ``*_query`` statement: generator-bound values, then the caller's."""
    return [(query, tuple(query.parameters) + tuple(values))]


@dataclass(frozen=True)
class Case:
    name: str
    build: Callable[[DetectionSqlGenerator], List[Bound]]


#: the four detection-plan builders carry the plan family their statements
#: belong to, ``window``, in their case names
CASES = [
    Case(
        "plan_single_queries-window",
        lambda g: _plans(g.plan_single_queries(CFD_R)),
    ),
    Case(
        "plan_multi_queries-window",
        lambda g: _plans(g.plan_multi_queries(CFD_R)),
    ),
    Case(
        "plan_delta_single-window",
        lambda g: _plans(g.plan_delta_single(CFD_R, TIDS)),
    ),
    Case(
        "plan_delta_multi-window",
        lambda g: _plans(g.plan_delta_multi(CFD_R, "C", KEYS)),
    ),
    Case(
        "covering_members_query",
        lambda g: _caller_bound(
            g.covering_members_query(CFD_R, "C", len(KEYS)), *_flat(KEYS)
        ),
    ),
    Case(
        "covering_members_plans",
        lambda g: _plans(g.covering_members_plans(CFD_R, "C", KEYS)),
    ),
    Case(
        "tid_lhs_query",
        lambda g: _caller_bound(g.tid_lhs_query(CFD_R, len(TIDS)), *TIDS),
    ),
    Case(
        "lhs_values_plans",
        lambda g: _plans(g.lhs_values_plans(CFD_R, TIDS)),
    ),
    Case(
        "value_freq_query",
        lambda g: _caller_bound(g.value_freq_query("C")),
    ),
    Case(
        "group_stats_query",
        lambda g: _caller_bound(
            g.group_stats_query(CFD_R, "C", len(KEYS)), *_flat(KEYS)
        ),
    ),
    Case(
        "group_stats_plans",
        lambda g: _plans(g.group_stats_plans(CFD_R, "C", KEYS)),
    ),
    Case(
        "row_fetch_query",
        lambda g: _caller_bound(g.row_fetch_query(len(TIDS)), *TIDS),
    ),
    Case(
        "row_fetch_plans",
        lambda g: _plans(g.row_fetch_plans(TIDS)),
    ),
    Case(
        "majority_value_query",
        lambda g: _caller_bound(
            g.majority_value_query(CFD_R, "C", len(KEYS)), *_flat(KEYS)
        ),
    ),
    Case(
        "majority_value_plans",
        lambda g: _plans(g.majority_value_plans(CFD_R, "C", KEYS)),
    ),
    Case(
        "attr_freq_query",
        lambda g: [
            bound
            for index in range(len(CFD_R.patterns))
            for bound in _caller_bound(g.attr_freq_query(CFD_R, index))
        ],
    ),
    Case(
        "applicable_count_query",
        lambda g: _caller_bound(g.applicable_count_query(tuple(CFD_R.normalize()))),
    ),
    Case(
        "applicable_tids_query",
        lambda g: _caller_bound(g.applicable_tids_query(tuple(CFD_R.normalize()))),
    ),
    Case(
        "page_fetch_query_unrestricted",
        lambda g: _caller_bound(g.page_fetch_query(page_size=2), -1),
    ),
    Case(
        "page_fetch_query_group_eq",
        lambda g: _caller_bound(
            g.page_fetch_query(CFD_R, "C", "eq", page_size=2), "zeta", "2", "x", -1
        ),
    ),
    Case(
        "page_fetch_query_group_null",
        lambda g: _caller_bound(
            g.page_fetch_query(CFD_R, "C", "null", page_size=2), "free", "3", -1
        ),
    ),
]


@pytest.fixture
def backend():
    backend = SqliteBackend()
    backend.add_relation(Relation.from_rows(SCHEMA, ROWS))
    yield backend
    backend.close()


def _statements(case: Case, backend=None) -> List[Bound]:
    if backend is None:
        generator = DetectionSqlGenerator(SCHEMA)
    else:
        generator = DetectionSqlGenerator(SCHEMA, max_parameters=backend.max_parameters)
    statements = case.build(generator)
    assert statements, f"{case.name} built no statement"
    return statements


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_every_value_is_bound(case):
    for query, values in _statements(case):
        assert query.sql.count("?") == len(values)
        lowered = query.sql.lower()
        for sentinel in SENTINELS:
            assert sentinel not in lowered, f"{sentinel!r} inlined in {query.sql}"
        assert query.kind in STATEMENT_KINDS


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_statement_runs_on_sqlite(case, backend):
    returned = 0
    for query, values in _statements(case, backend):
        returned += len(backend.execute(query.sql, values))
    # every case's restriction or pattern reaches at least one stored row
    assert returned > 0
