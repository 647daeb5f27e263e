"""Tests for the direct (oracle) CFD satisfaction semantics, incl. property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cfd import CFD
from repro.core.parser import parse_cfd
from repro.core.pattern import PatternTuple
from repro.core.satisfaction import (
    matching_tids,
    multi_tuple_violation_groups,
    satisfies,
    satisfies_all,
    scan_violations,
    single_tuple_violations,
    violating_tids,
    violation_counts,
)
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema

SCHEMA = RelationSchema.of("customer", ["NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"])


def make_relation(rows):
    return Relation.from_rows(SCHEMA, rows)


@pytest.fixture
def phi2():
    return parse_cfd("customer: [CNT='UK', ZIP=_] -> [STR=_]", name="phi2")


@pytest.fixture
def phi4():
    return parse_cfd("customer: [CC='44'] -> [CNT='UK']", name="phi4")


@pytest.fixture
def example(customer_relation):
    return customer_relation


class TestSingleTupleViolations:
    def test_constant_violation_detected(self, example, phi4):
        violations = single_tuple_violations(example, phi4)
        assert violations == [(4, 0)]  # Anna: CC=44 but CNT=NL

    def test_satisfying_tuples_not_flagged(self, example, phi4):
        flagged = {tid for tid, _p in single_tuple_violations(example, phi4)}
        assert 0 not in flagged and 5 not in flagged

    def test_variable_cfd_has_no_single_violations(self, example, phi2):
        assert single_tuple_violations(example, phi2) == []


class TestMultiTupleViolations:
    def test_group_detected(self, example, phi2):
        groups = multi_tuple_violation_groups(example, phi2)
        assert len(groups) == 1
        pattern_index, key, tids = groups[0]
        assert key == ("UK", "EH4 1DT")
        assert tids == [0, 1]

    def test_agreeing_group_not_flagged(self, example):
        phi1 = parse_cfd("customer: [CNT=_, ZIP=_] -> [CITY=_]")
        assert multi_tuple_violation_groups(example, phi1) == []

    def test_null_rhs_tuples_ignored(self, phi2):
        relation = make_relation([
            {"CNT": "UK", "ZIP": "Z", "STR": None},
            {"CNT": "UK", "ZIP": "Z", "STR": "High St"},
        ])
        assert multi_tuple_violation_groups(relation, phi2) == []

    def test_null_lhs_tuples_ignored(self, phi2):
        relation = make_relation([
            {"CNT": "UK", "ZIP": None, "STR": "A"},
            {"CNT": "UK", "ZIP": None, "STR": "B"},
        ])
        assert multi_tuple_violation_groups(relation, phi2) == []


class TestAggregateHelpers:
    def test_satisfies_and_satisfies_all(self, example, phi2, phi4):
        assert not satisfies(example, phi2)
        assert not satisfies_all(example, [phi2, phi4])
        clean = make_relation([
            {"CNT": "UK", "ZIP": "Z", "STR": "A", "CC": "44"},
        ])
        assert satisfies(clean, phi2)
        assert satisfies(clean, phi4)

    def test_violating_tids(self, example, phi2, phi4):
        assert violating_tids(example, [phi2, phi4]) == {0, 1, 4}

    def test_violation_counts_matches_paper_definition(self, example, phi2, phi4):
        vio = violation_counts(example, [phi2, phi4])
        # Mike and Rick each jointly violate phi2 with one other tuple.
        assert vio[0] == 1 and vio[1] == 1
        # Anna violates phi4 on her own.
        assert vio[4] == 1
        # Everyone else is clean.
        assert vio[2] == vio[3] == vio[5] == 0

    def test_matching_tids(self, example, phi2):
        tids = matching_tids(example, phi2, phi2.patterns[0])
        assert set(tids) == {0, 1, 5}


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

small_value = st.sampled_from(["a", "b", "c", None])
row_strategy = st.fixed_dictionaries(
    {"CNT": small_value, "ZIP": small_value, "STR": small_value, "CC": small_value}
)
rows_strategy = st.lists(row_strategy, min_size=0, max_size=12)

MINI_SCHEMA = RelationSchema.of("customer", ["CNT", "ZIP", "STR", "CC"])


def mini_relation(rows):
    return Relation.from_rows(MINI_SCHEMA, rows)


@st.composite
def random_cfd(draw):
    lhs_attrs = draw(
        st.lists(st.sampled_from(["CNT", "ZIP", "CC"]), min_size=1, max_size=2, unique=True)
    )
    rhs_attr = draw(st.sampled_from([a for a in ["STR", "CNT", "CC"] if a not in lhs_attrs]))
    mapping = {}
    for attr in lhs_attrs:
        mapping[attr] = draw(st.sampled_from(["_", "a", "b"]))
    mapping[rhs_attr] = draw(st.sampled_from(["_", "a", "b"]))
    return CFD(
        relation="customer",
        lhs=tuple(lhs_attrs),
        rhs=(rhs_attr,),
        patterns=(__import__("repro.core.pattern", fromlist=["PatternTuple"]).PatternTuple.of(mapping),),
    )


class TestProperties:
    @given(rows=rows_strategy, cfd=random_cfd())
    @settings(max_examples=60, deadline=None)
    def test_normalize_preserves_violations(self, rows, cfd):
        relation = mini_relation(rows)
        direct = violating_tids(relation, [cfd])
        normalized = violating_tids(relation, cfd.normalize())
        assert direct == normalized

    @given(rows=rows_strategy, cfd=random_cfd())
    @settings(max_examples=60, deadline=None)
    def test_single_and_pair_semantics_agree_with_satisfies(self, rows, cfd):
        relation = mini_relation(rows)
        has_violation = bool(single_tuple_violations(relation, cfd)) or bool(
            multi_tuple_violation_groups(relation, cfd)
        )
        assert satisfies(relation, cfd) == (not has_violation)

    @given(rows=rows_strategy, cfd=random_cfd())
    @settings(max_examples=60, deadline=None)
    def test_vio_counts_nonnegative_and_only_for_violators(self, rows, cfd):
        relation = mini_relation(rows)
        vio = violation_counts(relation, [cfd])
        dirty = violating_tids(relation, [cfd])
        for tid, count in vio.items():
            assert count >= 0
            if count > 0:
                assert tid in dirty

    @given(rows=rows_strategy, cfd=random_cfd())
    @settings(max_examples=40, deadline=None)
    def test_duplicating_a_tuple_never_creates_single_violations(self, rows, cfd):
        relation = mini_relation(rows)
        baseline = {tid for tid, _p in single_tuple_violations(relation, cfd)}
        if rows:
            relation.insert(rows[0])
            after = {tid for tid, _p in single_tuple_violations(relation, cfd)}
            assert baseline <= after


# ---------------------------------------------------------------------------
# The one-pass scan against a reference written from the definition
# ---------------------------------------------------------------------------

TYPED_SCHEMA = RelationSchema.of(
    "typed", [("A", "string"), ("B", "integer"), ("C", "float"), ("D", "string")]
)
#: per attribute: the cell values rows draw from, and the pattern constants
#: CFDs draw from (untyped on purpose: the integer 1 meets the float 1.0)
TYPED_VALUES = {
    "A": ["a", "b", None],
    "B": [0, 1, None],
    "C": [0.0, 1.0, 1.5, None],
    "D": ["a", "b", None],
}
TYPED_CONSTANTS = {"A": ["a", "b"], "B": [0, 1, 1.0], "C": [1, 1.0, 1.5], "D": ["a", "b"]}


@st.composite
def typed_instance(draw):
    """Rows stored under shuffled tids (so dict order is not tid order), and a CFD."""
    rows = draw(
        st.lists(
            st.fixed_dictionaries(
                {attr: st.sampled_from(values) for attr, values in TYPED_VALUES.items()}
            ),
            max_size=14,
        )
    )
    tids = draw(st.permutations([3 * index for index in range(len(rows))]))
    relation = Relation(TYPED_SCHEMA)
    for tid, row in zip(tids, rows):
        relation.insert_at(tid, row)
    lhs = draw(st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=2, unique=True))
    rhs = draw(
        st.lists(
            st.sampled_from([attr for attr in TYPED_VALUES if attr not in lhs]),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    patterns = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        mapping = {
            attr: draw(st.sampled_from(["_"] + TYPED_CONSTANTS[attr])) for attr in lhs + rhs
        }
        patterns.append(PatternTuple.of(mapping))
    cfd = CFD(relation="typed", lhs=tuple(lhs), rhs=tuple(rhs), patterns=tuple(patterns))
    return relation, cfd


def _equal(left, right):
    """Equality of the definition: numbers compare by value, so 1 equals 1.0."""
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left) == float(right)
    return left == right


def _position_matches(pattern_value, value):
    """A wildcard matches any non-NULL value, a constant an equal one; NULL matches nothing."""
    if value is None:
        return False
    return pattern_value.is_wildcard or _equal(pattern_value.constant, value)


def _reference(relation, cfd):
    """Single-tuple violations and violating groups, per pattern, from the definition."""
    rows = sorted(relation.rows())
    singles, groups = [], []
    for index, pattern in enumerate(cfd.patterns):
        # the pattern applies: every LHS position matches (so no LHS NULL)
        applicable = [
            (tid, row)
            for tid, row in rows
            if all(_position_matches(pattern.value(attr), row[attr]) for attr in cfd.lhs)
        ]
        for tid, row in applicable:
            if any(
                pattern.value(attr).is_constant
                and not _position_matches(pattern.value(attr), row[attr])
                for attr in cfd.rhs
            ):
                singles.append((tid, index))
        wildcard = [attr for attr in cfd.rhs if pattern.value(attr).is_wildcard]
        if not wildcard:
            continue
        partition = []  # [first member's LHS values, member rows], first-member order
        for tid, row in applicable:
            if all(row[attr] is None for attr in wildcard):
                continue
            key = tuple(row[attr] for attr in cfd.lhs)
            for first, members in partition:
                if all(_equal(left, right) for left, right in zip(first, key)):
                    members.append((tid, row))
                    break
            else:
                partition.append((key, [(tid, row)]))
        for key, members in partition:
            disagree = any(
                left[attr] is not None
                and right[attr] is not None
                and not _equal(left[attr], right[attr])
                for attr in wildcard
                for _tid, left in members
                for _other, right in members
            )
            if len(members) > 1 and disagree:
                groups.append((index, key, [tid for tid, _row in members]))
    return singles, groups


class TestOnePassScan:
    @given(instance=typed_instance())
    @settings(max_examples=150, deadline=None)
    def test_scan_matches_the_definition_item_for_item(self, instance):
        relation, cfd = instance
        singles, groups = _reference(relation, cfd)
        scan = scan_violations(relation, cfd)
        assert scan.single_tuple_violations() == singles
        assert scan.multi_tuple_violation_groups() == groups
        assert single_tuple_violations(relation, cfd) == singles
        assert multi_tuple_violation_groups(relation, cfd) == groups
        for index, pattern in enumerate(cfd.patterns):
            applicable = [
                tid
                for tid, row in sorted(relation.rows())
                if all(_position_matches(pattern.value(attr), row[attr]) for attr in cfd.lhs)
            ]
            assert matching_tids(relation, cfd, pattern) == applicable

    def test_integer_constant_meets_float_cells(self):
        relation = Relation.from_rows(
            TYPED_SCHEMA,
            [{"A": "a", "C": 1.0, "D": "x"}, {"A": "a", "C": 1.0, "D": "y"},
             {"A": "a", "C": 1.5, "D": "z"}],
        )
        cfd = CFD(
            relation="typed",
            lhs=("C",),
            rhs=("D",),
            patterns=(PatternTuple.of({"C": 1, "D": "_"}),),
        )
        scan = scan_violations(relation, cfd)
        assert scan.multi_tuple_violation_groups() == [(0, (1.0,), [0, 1])]


class TestCompiledMatching:
    """Each pattern row is compiled once per CFD; no per-row path re-derives it.

    ``CFD.applies_to`` projected the LHS pattern through
    ``PatternTuple.restrict`` for every row it tested.  Counted calls pin
    that a scan over N rows makes as many pattern-tuple calls as one over
    a few rows, not timings.
    """

    @staticmethod
    def _cfd():
        return parse_cfd(
            "customer: [CNT='UK', ZIP=_] -> [STR=_] ; [CNT='US', ZIP=_] -> [STR='x']"
        )

    @staticmethod
    def _relation(size):
        rows = [
            {"CNT": ("UK", "US", "NL")[index % 3], "ZIP": f"z{index % 2}",
             "STR": f"s{index % 4}", "CC": None}
            for index in range(size)
        ]
        rows.append({"CNT": "UK", "ZIP": None, "STR": "s0"})
        return mini_relation(rows)

    def _pattern_calls(self, monkeypatch, size):
        relation, cfd = self._relation(size), self._cfd()
        calls = {"restrict": 0, "value": 0}

        def counting(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(
                PatternTuple, name, counting(name, getattr(PatternTuple, name))
            )
        scan = scan_violations(relation, cfd)
        monkeypatch.undo()
        assert scan.multi_tuple_violation_groups() and scan.single_tuple_violations()
        return calls

    def test_scan_pattern_calls_do_not_grow_with_rows(self, monkeypatch):
        small = self._pattern_calls(monkeypatch, 12)
        large = self._pattern_calls(monkeypatch, 600)
        assert large == small, (small, large)
        assert large["restrict"] == 0

    def test_matchers_are_kept_on_the_cfd_and_left_out_of_equality(self):
        cfd = self._cfd()
        assert cfd.matchers is cfd.matchers
        assert [matcher.pattern for matcher in cfd.matchers] == list(cfd.patterns)
        fresh = self._cfd()
        assert fresh == cfd and hash(fresh) == hash(cfd)
        assert "matchers" not in repr(cfd)
        assert cfd.matcher(cfd.patterns[1]) is cfd.matchers[1]
        # a pattern tuple that is not one of the CFD's rows is compiled afresh
        other = PatternTuple.of({"CNT": "NL", "ZIP": "_", "STR": "_"})
        assert cfd.matcher(other).applies_to({"CNT": "NL", "ZIP": "z"})
