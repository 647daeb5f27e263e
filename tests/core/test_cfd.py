"""Tests for the CFD class: construction, classification, semantics, serialisation."""

import os
import pickle
import subprocess
import sys

import pytest

from repro.core.cfd import CFD, normalize_all
from repro.core.pattern import PatternTuple
from repro.engine.types import AttributeDef, DataType, RelationSchema
from repro.errors import CfdError, CfdSchemaError


@pytest.fixture
def phi2():
    """[CNT='UK', ZIP=_] -> [STR=_] — variable CFD with a condition."""
    return CFD.build("customer", {"CNT": "UK", "ZIP": "_"}, {"STR": "_"}, name="phi2")


@pytest.fixture
def phi4():
    """[CC='44'] -> [CNT='UK'] — constant CFD."""
    return CFD.build("customer", {"CC": "44"}, {"CNT": "UK"}, name="phi4")


class TestConstruction:
    def test_build_sets_sides_and_pattern(self, phi2):
        assert phi2.lhs == ("CNT", "ZIP")
        assert phi2.rhs == ("STR",)
        assert len(phi2.patterns) == 1

    def test_from_fd_is_plain_fd(self):
        fd = CFD.from_fd("customer", ["CNT", "ZIP"], ["CITY"])
        assert fd.is_plain_fd()
        assert fd.is_variable_cfd()
        assert not fd.is_constant_cfd()

    def test_empty_rhs_rejected(self):
        with pytest.raises(CfdError):
            CFD(relation="r", lhs=("A",), rhs=(), patterns=(PatternTuple.of({"A": "_"}),))

    def test_overlapping_sides_rejected(self):
        with pytest.raises(CfdError):
            CFD.build("r", {"A": "_"}, {"A": "_"})

    def test_pattern_must_cover_all_attributes(self):
        with pytest.raises(CfdError):
            CFD(
                relation="r",
                lhs=("A",),
                rhs=("B",),
                patterns=(PatternTuple.of({"A": "_"}),),
            )

    def test_empty_lhs_allowed_for_constant_assertion(self):
        cfd = CFD(
            relation="r",
            lhs=(),
            rhs=("B",),
            patterns=(PatternTuple.of({"B": "always"}),),
        )
        assert cfd.single_tuple_violation({"B": "other"})

    def test_empty_lhs_with_wildcard_rhs_rejected(self):
        with pytest.raises(CfdError):
            CFD(relation="r", lhs=(), rhs=("B",), patterns=(PatternTuple.of({"B": "_"}),))


class TestClassification:
    def test_constant_cfd(self, phi4):
        assert phi4.is_constant_cfd()
        assert not phi4.is_variable_cfd()
        assert not phi4.is_plain_fd()

    def test_variable_cfd_with_condition(self, phi2):
        assert phi2.is_variable_cfd()
        assert not phi2.is_constant_cfd()
        assert not phi2.is_plain_fd()

    def test_identifier_uses_name_when_available(self, phi2):
        assert phi2.identifier == "phi2"
        unnamed = CFD.build("customer", {"CC": "44"}, {"CNT": "UK"})
        assert "customer" in unnamed.identifier

    def test_validate_against_schema(self, phi2):
        phi2.validate_against(["CNT", "ZIP", "STR", "CC"])
        with pytest.raises(CfdSchemaError):
            phi2.validate_against(["CNT", "ZIP"])


class TestNormalisation:
    def test_multi_rhs_splits(self):
        cfd = CFD.build("r", {"A": "_"}, {"B": "_", "C": "x"})
        normalized = cfd.normalize()
        assert len(normalized) == 2
        assert all(len(sub.rhs) == 1 for sub in normalized)
        assert all(sub.is_normalized() for sub in normalized)

    def test_multi_pattern_splits(self):
        cfd = CFD(
            relation="r",
            lhs=("A",),
            rhs=("B",),
            patterns=(
                PatternTuple.of({"A": "x", "B": "1"}),
                PatternTuple.of({"A": "y", "B": "2"}),
            ),
        )
        assert len(cfd.normalize()) == 2

    def test_normalize_is_idempotent(self, phi2):
        once = phi2.normalize()
        twice = normalize_all(once)
        assert len(once) == len(twice) == 1
        assert twice[0].lhs == phi2.lhs

    def test_normalize_all_flattens(self, phi2, phi4):
        assert len(normalize_all([phi2, phi4])) == 2


class TestSemantics:
    def test_applies_to_requires_constant_match_and_non_null_lhs(self, phi2):
        assert phi2.applies_to({"CNT": "UK", "ZIP": "EH1", "STR": "x"})
        assert not phi2.applies_to({"CNT": "US", "ZIP": "EH1", "STR": "x"})
        assert not phi2.applies_to({"CNT": "UK", "ZIP": None, "STR": "x"})

    def test_single_tuple_violation_constant_rhs(self, phi4):
        assert phi4.single_tuple_violation({"CC": "44", "CNT": "FR"})
        assert not phi4.single_tuple_violation({"CC": "44", "CNT": "UK"})
        assert not phi4.single_tuple_violation({"CC": "01", "CNT": "FR"})

    def test_single_tuple_violation_null_rhs_counts(self, phi4):
        assert phi4.single_tuple_violation({"CC": "44", "CNT": None})

    def test_variable_cfd_has_no_single_violations(self, phi2):
        assert not phi2.single_tuple_violation({"CNT": "UK", "ZIP": "EH1", "STR": None})

    def test_pair_violation(self, phi2):
        row_a = {"CNT": "UK", "ZIP": "EH1", "STR": "High St"}
        row_b = {"CNT": "UK", "ZIP": "EH1", "STR": "Low Rd"}
        row_c = {"CNT": "UK", "ZIP": "EH2", "STR": "Low Rd"}
        assert phi2.pair_violation(row_a, row_b)
        assert not phi2.pair_violation(row_a, row_a)
        assert not phi2.pair_violation(row_a, row_c)

    def test_pair_violation_ignores_non_matching_pattern(self, phi2):
        row_a = {"CNT": "US", "ZIP": "111", "STR": "A"}
        row_b = {"CNT": "US", "ZIP": "111", "STR": "B"}
        assert not phi2.pair_violation(row_a, row_b)

    def test_pair_violation_constant_rhs_not_reported(self, phi4):
        # disagreement against a constant RHS is a single-tuple matter
        row_a = {"CC": "44", "CNT": "UK"}
        row_b = {"CC": "44", "CNT": "FR"}
        assert not phi4.pair_violation(row_a, row_b)


class TestSerialisation:
    def test_dict_roundtrip(self, phi2):
        rebuilt = CFD.from_dict(phi2.to_dict())
        assert rebuilt.lhs == phi2.lhs
        assert rebuilt.rhs == phi2.rhs
        assert rebuilt.patterns == phi2.patterns

    def test_str_rendering(self, phi2, phi4):
        assert "CNT" in str(phi2)
        assert "->" in str(phi4)

    def test_with_patterns(self, phi2):
        new_pattern = PatternTuple.of({"CNT": "_", "ZIP": "_", "STR": "_"})
        changed = phi2.with_patterns([new_pattern])
        assert changed.patterns == (new_pattern,)
        assert phi2.patterns != changed.patterns
        # the hash is cached at construction and follows the new tableau
        assert hash(changed) == hash(CFD.from_dict(changed.to_dict()))

    def test_unpickled_cfd_hashes_like_a_fresh_one(self, phi2):
        # string hashes differ between processes, so a CFD unpickled in
        # another process must hash its own fields, not the cached hash
        script = (
            "import pickle, sys\n"
            "from repro.core.cfd import CFD\n"
            "cfd = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = CFD.from_dict(cfd.to_dict())\n"
            "print(hash(cfd) == hash(fresh) and {fresh: 1}.get(cfd) == 1)\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        result = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(phi2),
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert result.stdout.decode().strip() == "True", result.stderr.decode()


class TestSchemaCoercion:
    SCHEMA = RelationSchema(
        "m",
        [
            AttributeDef("N", DataType.INTEGER),
            AttributeDef("F", DataType.FLOAT),
            AttributeDef("S"),
        ],
    )

    def test_constants_take_their_attribute_types(self):
        cfd = CFD.build("m", {"N": "5", "F": 2}, {"S": "x"})
        typed = cfd.coerced_to(self.SCHEMA)
        pattern = typed.patterns[0]
        assert pattern.value("N").constant == 5
        assert type(pattern.value("F").constant) is float
        assert pattern.value("S").constant == "x"
        assert typed.identifier == cfd.identifier

    def test_unchanged_cfd_is_returned_as_is(self):
        cfd = CFD.build("m", {"N": 5, "F": "_"}, {"S": "x"})
        assert cfd.coerced_to(self.SCHEMA) is cfd

    def test_constant_that_does_not_coerce_raises(self):
        cfd = CFD.build("m", {"N": "five"}, {"S": "x"})
        with pytest.raises(CfdSchemaError, match="five"):
            cfd.coerced_to(self.SCHEMA)

    def test_unknown_attribute_raises(self):
        cfd = CFD.build("m", {"Q": "1"}, {"S": "x"})
        with pytest.raises(CfdSchemaError, match="unknown attributes"):
            cfd.coerced_to(self.SCHEMA)
