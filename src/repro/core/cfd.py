"""Conditional functional dependencies (CFDs).

A CFD ``phi = (R: X -> Y, Tp)`` consists of

* a target relation name ``R``;
* an embedded functional dependency ``X -> Y``;
* a pattern tableau ``Tp``: one or more pattern tuples over ``X ∪ Y`` whose
  positions are constants or the unnamed variable ``_``.

Semantics (per the paper and its companion TODS 2008 article): for every
pattern tuple ``tp`` in ``Tp`` and all tuples ``t1, t2`` of an instance of
``R``, if ``t1[X] = t2[X]`` and both match ``tp[X]``, then ``t1[Y] = t2[Y]``
and both must match ``tp[Y]``.  Traditional FDs are the special case where
every position is ``_``; instance-level constraints such as
``[CC='44'] -> [CNT='UK']`` are the special case where every position is a
constant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..engine.types import RelationSchema, coerce_value
from ..errors import CfdError, CfdSchemaError, TypeMismatchError
from .pattern import PatternTuple, PatternValue


@dataclass(frozen=True)
class CFD:
    """A conditional functional dependency over one relation."""

    relation: str
    lhs: Tuple[str, ...]
    rhs: Tuple[str, ...]
    patterns: Tuple[PatternTuple, ...]
    name: Optional[str] = None
    #: the hash, computed once: the detection plan caches key statements
    #: by CFD, and hashing the whole tableau on every lookup made SQL
    #: detection quadratic in the pattern rows
    _hash: int = field(init=False, repr=False, compare=False)
    #: one compiled matcher per pattern row, built on first use (see
    #: :attr:`matchers`); like the hash it is rebuilt, not copied, by
    #: ``replace`` and unpickling
    _matchers: Optional[Tuple["PatternMatcher", ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.lhs and not any(
            pattern.value(attr).is_constant
            for pattern in self.patterns
            for attr in self.rhs
        ):
            # An empty LHS is only meaningful for constant RHS patterns
            # (assertions of the form "[] -> [A='x']").
            raise CfdError("a CFD needs a non-empty LHS or a constant RHS pattern")
        if not self.rhs:
            raise CfdError("a CFD needs at least one RHS attribute")
        if not self.patterns:
            raise CfdError("a CFD needs at least one pattern tuple")
        overlap = set(self.lhs) & set(self.rhs)
        if overlap:
            raise CfdError(f"attributes {sorted(overlap)} appear on both sides of the FD")
        expected = set(self.lhs) | set(self.rhs)
        for pattern in self.patterns:
            if set(pattern.attributes) != expected:
                raise CfdError(
                    f"pattern tuple {pattern} does not range over {sorted(expected)}"
                )
        object.__setattr__(
            self,
            "_hash",
            hash((self.relation, self.lhs, self.rhs, self.patterns, self.name)),
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: rebuild, and so rehash,
        # instead of restoring the stored hash
        fields = (self.relation, self.lhs, self.rhs, self.patterns, self.name)
        return (type(self), fields)

    # -- constructors --------------------------------------------------------------

    @classmethod
    def build(
        cls,
        relation: str,
        lhs: Mapping[str, Any],
        rhs: Mapping[str, Any],
        name: Optional[str] = None,
    ) -> "CFD":
        """Build a single-pattern CFD from ``{attr: constant or '_'}`` mappings.

        Example::

            CFD.build("customer", {"CC": "44"}, {"CNT": "UK"})
            CFD.build("customer", {"CNT": "UK", "ZIP": "_"}, {"STR": "_"})
        """
        lhs_attrs = tuple(lhs.keys())
        rhs_attrs = tuple(rhs.keys())
        combined: Dict[str, Any] = {}
        combined.update(lhs)
        combined.update(rhs)
        pattern = PatternTuple.of(combined)
        return cls(
            relation=relation,
            lhs=lhs_attrs,
            rhs=rhs_attrs,
            patterns=(pattern,),
            name=name,
        )

    @classmethod
    def from_fd(
        cls,
        relation: str,
        lhs: Sequence[str],
        rhs: Sequence[str],
        name: Optional[str] = None,
    ) -> "CFD":
        """Lift a traditional FD ``X -> Y`` into a CFD with an all-wildcard pattern."""
        mapping = {attr: PatternValue.wildcard() for attr in tuple(lhs) + tuple(rhs)}
        return cls(
            relation=relation,
            lhs=tuple(lhs),
            rhs=tuple(rhs),
            patterns=(PatternTuple.of(mapping),),
            name=name,
        )

    # -- structure -------------------------------------------------------------------

    @property
    def attributes(self) -> Tuple[str, ...]:
        """All attributes mentioned by the CFD (LHS then RHS)."""
        return self.lhs + self.rhs

    @property
    def identifier(self) -> str:
        """A stable human-readable identifier (explicit name or derived)."""
        if self.name:
            return self.name
        lhs = ",".join(self.lhs)
        rhs = ",".join(self.rhs)
        return f"{self.relation}:[{lhs}]->[{rhs}]#{len(self.patterns)}"

    @property
    def matchers(self) -> Tuple["PatternMatcher", ...]:
        """One :class:`PatternMatcher` per pattern row, in tableau order.

        Compiled on first use and kept on the CFD, so every per-row test
        (:meth:`applies_to`, :meth:`single_tuple_violation`, the one-pass
        violation scan, the incremental detector) reads positions the
        pattern was split into once, instead of projecting the pattern
        tuple again for each row.
        """
        matchers = self._matchers
        if matchers is None:
            matchers = tuple(PatternMatcher(self, pattern) for pattern in self.patterns)
            object.__setattr__(self, "_matchers", matchers)
        return matchers

    def matcher(self, pattern: PatternTuple) -> "PatternMatcher":
        """The compiled matcher of ``pattern``.

        A pattern row of this CFD gets its stored matcher; any other
        pattern tuple over the CFD's attributes is compiled afresh.
        """
        for matcher in self.matchers:
            if matcher.pattern is pattern:
                return matcher
        return PatternMatcher(self, pattern)

    def _matchers_for(
        self, pattern: Optional[PatternTuple]
    ) -> Tuple["PatternMatcher", ...]:
        return self.matchers if pattern is None else (self.matcher(pattern),)

    def rhs_pattern(self, pattern: PatternTuple) -> PatternTuple:
        """Project ``pattern`` onto the RHS attributes."""
        return pattern.restrict(self.rhs)

    def is_constant_cfd(self) -> bool:
        """Whether every pattern position (LHS and RHS) is a constant."""
        return all(pattern.is_all_constants() for pattern in self.patterns)

    def is_variable_cfd(self) -> bool:
        """Whether every RHS pattern position is the wildcard (pure FD behaviour)."""
        return all(
            self.rhs_pattern(pattern).is_all_wildcards() for pattern in self.patterns
        )

    def is_plain_fd(self) -> bool:
        """Whether the CFD is a traditional FD (all positions wildcards)."""
        return all(pattern.is_all_wildcards() for pattern in self.patterns)

    # -- schema validation --------------------------------------------------------------

    def validate_against(self, attribute_names: Iterable[str]) -> None:
        """Raise :class:`CfdSchemaError` if the CFD uses unknown attributes."""
        known = set(attribute_names)
        unknown = [attr for attr in self.attributes if attr not in known]
        if unknown:
            raise CfdSchemaError(
                f"CFD {self.identifier} refers to unknown attributes {unknown}"
            )

    def coerced_to(self, schema: RelationSchema) -> "CFD":
        """Validate against ``schema`` and type every constant by its attribute.

        A CFD parsed from text keeps its constants as strings, so on a
        non-string column the native detector would compare ``'5' == 5``.
        Each constant is coerced by :meth:`typed_constant`, so every path
        compares the same value: the native and incremental detectors
        compare it with the working store's values, and the SQL paths bind
        it against the values SQLite stores.  Returns ``self`` when no
        constant changes; raises :class:`CfdSchemaError` for an unknown
        attribute or a constant that does not coerce.
        """
        self.validate_against(schema.attribute_names)
        changed = False
        patterns = []
        for pattern in self.patterns:
            values = []
            for attribute, value in pattern.values:
                if value.is_constant:
                    typed = self.typed_constant(schema, attribute, value.constant)
                    # 5 == 5.0, but the typed copy carries the column's type
                    if type(typed) is not type(value.constant) or typed != value.constant:
                        value = PatternValue.const(typed)
                        changed = True
                values.append((attribute, value))
            patterns.append(PatternTuple(values=tuple(values)))
        return self.with_patterns(patterns) if changed else self

    def typed_constant(self, schema: RelationSchema, attribute: str, constant: Any) -> Any:
        """``constant`` coerced to ``attribute``'s dtype in ``schema``.

        The rule of :meth:`coerced_to` and of the detection SQL's bound
        constants (:func:`~repro.engine.types.coerce_value`); raises
        :class:`CfdSchemaError` when the constant does not coerce.
        """
        dtype = schema.attribute(attribute).dtype
        try:
            return coerce_value(constant, dtype)
        except TypeMismatchError as exc:
            raise CfdSchemaError(
                f"CFD {self.identifier}: constant {constant!r} "
                f"of {attribute} is not a {dtype.value}"
            ) from exc

    # -- normalisation -------------------------------------------------------------------

    def normalize(self) -> List["CFD"]:
        """Split into normal form: one pattern tuple and one RHS attribute each.

        Normal-form CFDs are what the detector, the repair algorithm and the
        static analyses operate on; ``normalize`` is idempotent.
        """
        normalized: List[CFD] = []
        counter = itertools.count(1)
        for pattern in self.patterns:
            for rhs_attr in self.rhs:
                attrs = self.lhs + (rhs_attr,)
                sub_pattern = pattern.restrict(attrs)
                suffix = next(counter)
                name = f"{self.name}#{suffix}" if self.name else None
                normalized.append(
                    CFD(
                        relation=self.relation,
                        lhs=self.lhs,
                        rhs=(rhs_attr,),
                        patterns=(sub_pattern,),
                        name=name,
                    )
                )
        return normalized

    def is_normalized(self) -> bool:
        """Whether the CFD is already in normal form."""
        return len(self.patterns) == 1 and len(self.rhs) == 1

    def with_patterns(self, patterns: Sequence[PatternTuple]) -> "CFD":
        """Return a copy of this CFD with a different pattern tableau."""
        return replace(self, patterns=tuple(patterns))

    # -- tuple-level semantics (single CFD, single/pair of tuples) -----------------------

    def applies_to(self, row: Mapping[str, Any], pattern: Optional[PatternTuple] = None) -> bool:
        """Whether the CFD's LHS pattern applies to ``row``.

        A CFD applies to a tuple when the tuple matches the constants of the
        LHS pattern and carries non-NULL values for all LHS attributes.
        Without ``pattern``, whether some pattern row applies.
        """
        for matcher in self._matchers_for(pattern):
            if matcher.applies_to(row):
                return True
        return False

    def single_tuple_violation(
        self, row: Mapping[str, Any], pattern: Optional[PatternTuple] = None
    ) -> bool:
        """Whether ``row`` violates the CFD all by itself.

        This happens exactly when the row matches the LHS pattern but fails a
        *constant* RHS pattern position.
        """
        for matcher in self._matchers_for(pattern):
            if matcher.applies_to(row) and matcher.violates_constant(row):
                return True
        return False

    def pair_violation(
        self,
        row_a: Mapping[str, Any],
        row_b: Mapping[str, Any],
        pattern: Optional[PatternTuple] = None,
    ) -> bool:
        """Whether two rows jointly violate the CFD (multi-tuple violation).

        The rows must both match the LHS pattern, agree on all LHS attributes
        and disagree on some RHS attribute whose pattern position is ``_``.
        (Disagreement against a constant RHS is already a single-tuple
        violation of at least one of the rows.)
        """
        for matcher in self._matchers_for(pattern):
            if not (matcher.applies_to(row_a) and matcher.applies_to(row_b)):
                continue
            if any(
                not _values_agree(row_a.get(attr), row_b.get(attr)) for attr in self.lhs
            ):
                continue
            for rhs_attr in matcher.wildcard_rhs:
                if not _values_agree(row_a.get(rhs_attr), row_b.get(rhs_attr)):
                    return True
        return False

    # -- serialisation ----------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a JSON-friendly dict (wildcards as ``'_'``)."""
        return {
            "relation": self.relation,
            "lhs": list(self.lhs),
            "rhs": list(self.rhs),
            "name": self.name,
            "patterns": [pattern.encode() for pattern in self.patterns],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CFD":
        """Deserialise a CFD produced by :meth:`to_dict`."""
        lhs = tuple(data["lhs"])
        rhs = tuple(data["rhs"])
        patterns = []
        for raw in data["patterns"]:
            ordered = {attr: raw[attr] for attr in list(lhs) + list(rhs)}
            patterns.append(PatternTuple.of(ordered))
        return cls(
            relation=data["relation"],
            lhs=lhs,
            rhs=rhs,
            patterns=tuple(patterns),
            name=data.get("name"),
        )

    def __str__(self) -> str:
        parts = []
        for pattern in self.patterns:
            lhs_part = ", ".join(
                f"{attr}={pattern.value(attr)}" for attr in self.lhs
            )
            rhs_part = ", ".join(
                f"{attr}={pattern.value(attr)}" for attr in self.rhs
            )
            parts.append(f"[{lhs_part}] -> [{rhs_part}]")
        rendered = " ; ".join(parts)
        return f"{self.relation}: {rendered}"


class PatternMatcher:
    """One pattern row of a CFD, split once into what a row is tested against.

    ``key_constants`` are the constant LHS positions as ``(position in the
    LHS, pattern value)``; ``rhs_constants`` the constant RHS positions as
    ``(attribute, pattern value)``; ``wildcard_rhs`` the RHS attributes
    whose position is ``_``.  Get one from :attr:`CFD.matchers` rather
    than building it: the CFD keeps them.
    """

    __slots__ = ("pattern", "lhs", "key_constants", "rhs_constants", "wildcard_rhs")

    def __init__(self, cfd: CFD, pattern: PatternTuple):
        self.pattern = pattern
        self.lhs = cfd.lhs
        self.key_constants: Tuple[Tuple[int, PatternValue], ...] = tuple(
            (position, value)
            for position, value in enumerate(pattern.value(attr) for attr in cfd.lhs)
            if value.is_constant
        )
        rhs_values = [(attr, pattern.value(attr)) for attr in cfd.rhs]
        self.rhs_constants: Tuple[Tuple[str, PatternValue], ...] = tuple(
            (attr, value) for attr, value in rhs_values if value.is_constant
        )
        self.wildcard_rhs: Tuple[str, ...] = tuple(
            attr for attr, value in rhs_values if value.is_wildcard
        )

    def applies_to(self, row: Mapping[str, Any]) -> bool:
        """Whether every LHS value of ``row`` is non-NULL and the LHS constants match."""
        return self.applies_to_key(tuple(map(row.get, self.lhs)))

    def applies_to_key(self, key: Sequence[Any]) -> bool:
        """:meth:`applies_to` for the rows whose LHS values are ``key``.

        Applicability reads only a row's LHS values, so the group key
        alone decides it.
        """
        return len(key) == len(self.lhs) and None not in key and self.key_matches(key)

    def key_matches(self, key: Sequence[Any]) -> bool:
        """Whether the LHS constants match ``key``, a NULL-free tuple of LHS values."""
        for position, value in self.key_constants:
            if not value.matches(key[position]):
                return False
        return True

    def violates_constant(self, row: Mapping[str, Any]) -> bool:
        """Whether ``row`` fails some constant RHS position (NULL fails)."""
        get = row.get
        for attr, value in self.rhs_constants:
            if not value.matches(get(attr)):
                return True
        return False


def _values_agree(left: Any, right: Any) -> bool:
    """Equality used for the FD part of the semantics (NULL agrees with nothing)."""
    if left is None or right is None:
        return False
    if isinstance(left, (int, float)) and isinstance(right, (int, float)) and not (
        isinstance(left, bool) or isinstance(right, bool)
    ):
        return float(left) == float(right)
    return left == right


def normalize_all(cfds: Iterable[CFD]) -> List[CFD]:
    """Normalise every CFD in ``cfds`` and concatenate the results."""
    normalized: List[CFD] = []
    for cfd in cfds:
        normalized.extend(cfd.normalize())
    return normalized
