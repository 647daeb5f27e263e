"""Property: the backend tuple source is observationally identical to the
native oracle on every protocol method.

The audit/explorer/repair refactors all sit on :class:`TupleSource`, so
the read layer's correctness reduces to this one statement: for *any*
relation (NULL cells included) and *any* CFD, every protocol answer of
``BackendTupleSource`` — row counts, fetched rows, value frequencies,
group aggregates, per-pattern applicability histograms, applicable-tuple
counts and keyset pages under every RHS filter — equals the
``NativeTupleSource`` scan, on SQLite with its default parameter budget
and with one small enough to force chunked plans, over STRING columns and
over INTEGER, FLOAT, BOOLEAN and STRING ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.sqlite import SqliteBackend
from repro.core.parser import parse_cfd
from repro.engine.relation import Relation
from repro.engine.types import AttributeDef, DataType, RelationSchema
from repro.sources import (
    NO_RHS_FILTER,
    BackendTupleSource,
    NativeTupleSource,
)

ATTRIBUTES = ["A", "B", "C", "D"]

#: per schema, each column's type and the two values its cells and
#: pattern constants are drawn from
SCHEMAS = {
    "strings": {name: (DataType.STRING, ("a", "b")) for name in ATTRIBUTES},
    "typed": {
        "A": (DataType.INTEGER, (1, 2)),
        "B": (DataType.FLOAT, (1.5, 1e16)),
        "C": (DataType.BOOLEAN, (True, False)),
        "D": (DataType.STRING, ("a", "b")),
    },
}

BACKENDS = {
    "sqlite": SqliteBackend,
    # a parameter budget this small forces every key/tid restriction
    # through the chunked multi-statement paths
    "sqlite-chunked": lambda: SqliteBackend(max_parameters=4),
}


def _draw_cfd(data, columns, index):
    """A wildcard-RHS CFD whose constants are text, as parsed."""
    lhs = data.draw(
        st.lists(st.sampled_from(ATTRIBUTES), min_size=1, max_size=2, unique=True)
    )
    remaining = [name for name in ATTRIBUTES if name not in lhs]
    rhs = data.draw(st.sampled_from(remaining))
    patterns = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        rendered = []
        for name in lhs:
            value = data.draw(st.sampled_from(("_",) + columns[name][1]))
            rendered.append(f"{name}={value}" if value == "_" else f"{name}='{value}'")
        patterns.append(f"[{', '.join(rendered)}] -> [{rhs}=_]")
    return parse_cfd(f"r: {' ; '.join(patterns)}", name=f"cfd{index}")


def _group_keys(relation, cfd):
    """Every distinct NULL-free LHS key, plus one key no tuple carries."""
    keys = set()
    for _tid, row in relation.rows():
        key = tuple(row.get(attr) for attr in cfd.lhs)
        if None not in key:
            keys.add(key)
    return sorted(keys) + [tuple("z" for _ in cfd.lhs)]


def _drain_pages(source, page_size, **filters):
    rows = []
    after_tid = -1
    while True:
        page = source.page(after_tid=after_tid, page_size=page_size, **filters)
        rows.extend(page)
        if len(page) < page_size:
            return rows
        after_tid = page[-1][0]


@pytest.mark.parametrize(
    "backend_name, schema_name",
    [
        pytest.param("sqlite", "strings", id="sqlite"),
        pytest.param("sqlite-chunked", "strings", id="sqlite-chunked"),
        pytest.param("sqlite", "typed", id="sqlite-typed"),
        pytest.param("sqlite-chunked", "typed", id="sqlite-chunked-typed"),
    ],
)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_backend_source_matches_native_oracle(backend_name, schema_name, data):
    columns = SCHEMAS[schema_name]
    row_strategy = st.fixed_dictionaries(
        {name: st.sampled_from(values + (None,)) for name, (_, values) in columns.items()}
    )
    rows = data.draw(st.lists(row_strategy, min_size=1, max_size=12))
    schema = RelationSchema(
        "r", [AttributeDef(name, dtype) for name, (dtype, _) in columns.items()]
    )
    text_cfd = _draw_cfd(data, columns, 0)
    # typed the way the detector types it; the backend source binds the
    # same values for the text constants (checked on the histograms below)
    cfd = text_cfd.coerced_to(schema)
    rhs_attribute = cfd.rhs[0]
    page_size = data.draw(st.integers(min_value=1, max_value=5))

    relation = Relation.from_rows(schema, rows)
    native = NativeTupleSource(relation)

    backend = BACKENDS[backend_name]()
    try:
        backend.add_relation(relation.copy())
        source = BackendTupleSource(backend, "r")

        assert source.row_count() == native.row_count()
        assert source.attribute_names() == native.attribute_names()
        assert source.schema().attribute_names == schema.attribute_names

        tids = list(range(len(rows))) + [len(rows) + 7]  # one missing tid
        assert source.fetch_rows(tids) == native.fetch_rows(tids)
        assert source.fetch_rows([]) == {}

        assert source.value_frequencies() == native.value_frequencies()

        keys = _group_keys(relation, cfd)
        assert source.group_member_counts(
            cfd, rhs_attribute, keys
        ) == native.group_member_counts(cfd, rhs_attribute, keys)
        assert sorted(
            source.covering_member_tids(cfd, rhs_attribute, keys)
        ) == sorted(native.covering_member_tids(cfd, rhs_attribute, keys))
        assert source.majority_values(
            cfd, rhs_attribute, keys
        ) == native.majority_values(cfd, rhs_attribute, keys)

        for index in range(len(cfd.patterns)):
            expected = native.pattern_group_freq(cfd, index)
            assert source.pattern_group_freq(cfd, index) == expected
            assert source.pattern_group_freq(text_cfd, index) == expected

        subs = tuple(cfd.normalize())
        assert source.applicable_count(subs) == native.applicable_count(subs)
        assert source.applicable_count([]) == 0

        assert _drain_pages(source, page_size) == _drain_pages(native, page_size)
        for key in keys[:3]:
            for rhs_value in (NO_RHS_FILTER, None, columns[rhs_attribute][1][0]):
                assert _drain_pages(
                    source, page_size, cfd=cfd, lhs_values=key, rhs_value=rhs_value
                ) == _drain_pages(
                    native, page_size, cfd=cfd, lhs_values=key, rhs_value=rhs_value
                )

        assert source.last_sql  # every answer above was a pushed-down statement
    finally:
        backend.close()
