"""Regression: a literal ``'_'`` constant must never be misread as a wildcard.

The pattern tableau used to encode wildcards as the literal ``_`` token,
so a pattern constant whose value is literally ``'_'`` (built with
``PatternValue.const("_")``, or parsed from data containing underscores)
satisfied the old SQL predicate ``(tab.X = '_' OR tab.X = t.X)`` for
*every* data value — the SQL paths treated it as a wildcard while the
native detector treated it as the constant it is, and the paths diverged.
Wildcards are now encoded as SQL NULL (``const(None)`` is rejected, so no
constant can collide); these tests pin the fix across every detection
path and the tableau round-trip.
"""

import pytest

from repro.backends import SqliteBackend
from repro.core.cfd import CFD
from repro.core.pattern import PatternTuple, PatternValue
from repro.core.tableau import relation_to_tableau, tableau_to_relation
from repro.detection.detector import ErrorDetector
from repro.detection.incremental import IncrementalDetector
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.types import RelationSchema

SCHEMA = RelationSchema.of("r", ["A", "B"])


def _relation():
    return Relation.from_rows(
        SCHEMA,
        [
            {"A": "_", "B": "ok"},     # matches the '_' constant, right B
            {"A": "_", "B": "bad"},    # matches the '_' constant, wrong B: violates
            {"A": "other", "B": "bad"},  # does NOT match: a wildcard misread
            {"A": "other", "B": "bad"},  # would drag these two in
        ],
    )


def _underscore_cfd():
    # [A='_'] -> [B='ok']: the LHS constant is the literal underscore
    return CFD(
        relation="r",
        lhs=("A",),
        rhs=("B",),
        patterns=(
            PatternTuple.of(
                {"A": PatternValue.const("_"), "B": PatternValue.const("ok")}
            ),
        ),
        name="phi_underscore",
    )


def _keys(report):
    return sorted(
        (v.cfd_id, v.kind, v.tids, v.rhs_attribute, v.pattern_index, v.lhs_values)
        for v in report.violations
    )


class TestEncoding:
    def test_underscore_constant_and_wildcard_encode_differently(self):
        cfd = CFD(
            relation="r",
            lhs=("A",),
            rhs=("B",),
            patterns=(
                PatternTuple.of(
                    {"A": PatternValue.const("_"), "B": PatternValue.wildcard()}
                ),
            ),
            name="phi",
        )
        row = tableau_to_relation(cfd).to_list()[0]
        assert row["A"] == "_"  # the constant stays the literal string
        assert row["B"] is None  # the wildcard is NULL

    def test_roundtrip_preserves_the_distinction(self):
        cfd = _underscore_cfd()
        rebuilt = relation_to_tableau(cfd, tableau_to_relation(cfd))
        value = rebuilt.patterns[0].value("A")
        assert value.is_constant and value.constant == "_"

    def test_const_none_rejected(self):
        # NULL is reserved for the wildcard encoding
        with pytest.raises(Exception):
            PatternValue.const(None)


class TestAllDetectionPaths:
    """Native, SQL on SQLite (both plan families), incremental native and
    sql_delta must agree: only the genuine ``'_'`` rows violate."""

    def _expected(self):
        # tid 1 is the only violation: A='_' matches the constant, B != 'ok'
        return [("phi_underscore", "single", (1,), "B", 0, ("_",))]

    def test_native_path(self):
        database = Database()
        database.add_relation(_relation())
        report = ErrorDetector(database, use_sql=False).detect(
            "r", [_underscore_cfd()]
        )
        assert _keys(report) == self._expected()

    @pytest.mark.parametrize("plan", ["legacy", "window"])
    def test_sql_paths(self, plan):
        backend = SqliteBackend()
        backend.add_relation(_relation())
        report = ErrorDetector(backend, detect_plan=plan).detect(
            "r", [_underscore_cfd()]
        )
        assert _keys(report) == self._expected()
        backend.close()

    @pytest.mark.parametrize("plan", ["legacy", "window"])
    def test_restricted_detection(self, plan):
        backend = SqliteBackend()
        backend.add_relation(_relation())
        detector = ErrorDetector(backend, detect_plan=plan)
        restricted = detector.detect_for_tuples("r", [_underscore_cfd()], [1, 2])
        assert _keys(restricted) == self._expected()
        backend.close()

    def test_incremental_modes(self):
        for mode in ("native", "sql_delta"):
            database = Database()
            database.add_relation(_relation())
            mirror = None
            if mode == "sql_delta":
                mirror = SqliteBackend()
                mirror.add_relation(database.relation("r").copy())
            detector = IncrementalDetector(
                database, "r", [_underscore_cfd()], mirror=mirror, mode=mode
            )
            assert _keys(detector.report()) == self._expected(), mode
            # an update that makes a non-matching row match the constant
            detector.update(2, {"A": "_"})
            assert _keys(detector.report()) == [
                ("phi_underscore", "single", (1,), "B", 0, ("_",)),
                ("phi_underscore", "single", (2,), "B", 0, ("_",)),
            ], mode
            detector.close()
            if mirror is not None:
                mirror.close()

    def test_wildcard_rhs_with_underscore_data_groups_correctly(self):
        # wildcard-RHS Q_V over data whose LHS value is literally '_'
        relation = Relation.from_rows(
            SCHEMA,
            [
                {"A": "_", "B": "x"},
                {"A": "_", "B": "y"},  # group ('_') disagrees: violates
                {"A": "u", "B": "x"},
                {"A": "u", "B": "x"},  # agrees: clean
            ],
        )
        cfd = CFD(
            relation="r",
            lhs=("A",),
            rhs=("B",),
            patterns=(
                PatternTuple.of(
                    {"A": PatternValue.wildcard(), "B": PatternValue.wildcard()}
                ),
            ),
            name="phi_fd",
        )
        expected = [("phi_fd", "multi", (0, 1), "B", 0, ("_",))]
        database = Database()
        database.add_relation(relation.copy())
        assert _keys(ErrorDetector(database, use_sql=False).detect("r", [cfd])) == expected
        for plan in ("legacy", "window"):
            backend = SqliteBackend()
            backend.add_relation(relation.copy())
            report = ErrorDetector(backend, detect_plan=plan).detect("r", [cfd])
            assert _keys(report) == expected, plan
            backend.close()
