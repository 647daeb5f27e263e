"""Pattern values and pattern tuples for conditional functional dependencies.

A CFD pairs an embedded functional dependency ``X -> Y`` with a *pattern
tuple* over ``X ∪ Y``.  Each position of the pattern tuple is either a
constant (the attribute must carry exactly that value) or the unnamed
variable ``_`` ("don't care": any value is allowed, but equal values are
still required across tuples by the embedded FD).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from ..errors import CfdError

#: The token used to render the unnamed variable ("don't care") in text and
#: in the relational encoding of pattern tableaux.
WILDCARD_TOKEN = "_"


@dataclass(frozen=True)
class PatternValue:
    """A single position of a pattern tuple: a constant or the wildcard ``_``."""

    constant: Optional[Any] = None
    is_wildcard: bool = False

    def __post_init__(self) -> None:
        if self.is_wildcard and self.constant is not None:
            raise CfdError("a wildcard pattern value cannot carry a constant")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def wildcard(cls) -> "PatternValue":
        """The unnamed variable ``_``."""
        return cls(constant=None, is_wildcard=True)

    @classmethod
    def const(cls, value: Any) -> "PatternValue":
        """A constant pattern value."""
        if value is None:
            raise CfdError("a constant pattern value cannot be NULL")
        return cls(constant=value, is_wildcard=False)

    @classmethod
    def parse(cls, text: Any) -> "PatternValue":
        """Parse a raw token: ``'_'`` (or None) is the wildcard, else a constant."""
        if text is None:
            return cls.wildcard()
        if isinstance(text, str) and text.strip() == WILDCARD_TOKEN:
            return cls.wildcard()
        return cls.const(text)

    # -- semantics -------------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        """Whether this pattern value is a constant."""
        return not self.is_wildcard

    def matches(self, value: Any) -> bool:
        """Whether a data value matches this pattern value.

        The wildcard matches every non-NULL value; a constant matches only an
        equal value.  NULL never matches (a NULL cell cannot support or
        violate a pattern on its own).
        """
        if value is None:
            return False
        if self.is_wildcard:
            return True
        if isinstance(self.constant, (int, float)) and isinstance(value, (int, float)):
            return float(self.constant) == float(value)
        return self.constant == value

    def encode(self) -> Any:
        """Relational encoding used when materialising pattern tableaux."""
        return WILDCARD_TOKEN if self.is_wildcard else self.constant

    def __str__(self) -> str:
        return WILDCARD_TOKEN if self.is_wildcard else repr(self.constant)


@dataclass(frozen=True)
class PatternTuple:
    """An assignment of pattern values to a fixed set of attributes."""

    values: Tuple[Tuple[str, PatternValue], ...]

    # -- constructors -----------------------------------------------------------

    @classmethod
    def of(cls, mapping: Mapping[str, Any]) -> "PatternTuple":
        """Build a pattern tuple from ``{attribute: raw value or PatternValue}``."""
        items = []
        for attribute, value in mapping.items():
            if isinstance(value, PatternValue):
                items.append((attribute, value))
            else:
                items.append((attribute, PatternValue.parse(value)))
        return cls(values=tuple(items))

    # -- access -----------------------------------------------------------------

    @property
    def attributes(self) -> Tuple[str, ...]:
        """The attributes this pattern tuple constrains, in order."""
        return tuple(attribute for attribute, _value in self.values)

    def value(self, attribute: str) -> PatternValue:
        """The pattern value for ``attribute``."""
        for name, pattern_value in self.values:
            if name == attribute:
                return pattern_value
        raise CfdError(f"pattern tuple has no attribute {attribute!r}")

    def __contains__(self, attribute: str) -> bool:
        return any(name == attribute for name, _value in self.values)

    def restrict(self, attributes: Iterable[str]) -> "PatternTuple":
        """Project the pattern tuple onto ``attributes`` (kept in that order)."""
        return PatternTuple(
            values=tuple((attribute, self.value(attribute)) for attribute in attributes)
        )

    # -- semantics ----------------------------------------------------------------

    def constant_attributes(self) -> Tuple[str, ...]:
        """Attributes whose pattern value is a constant."""
        return tuple(a for a, v in self.values if v.is_constant)

    def wildcard_attributes(self) -> Tuple[str, ...]:
        """Attributes whose pattern value is the wildcard."""
        return tuple(a for a, v in self.values if v.is_wildcard)

    def is_all_constants(self) -> bool:
        """Whether every position is a constant."""
        return all(v.is_constant for _a, v in self.values)

    def is_all_wildcards(self) -> bool:
        """Whether every position is the wildcard."""
        return all(v.is_wildcard for _a, v in self.values)

    def matches(self, row: Mapping[str, Any]) -> bool:
        """Whether data row ``row`` matches this pattern tuple on all attributes."""
        return all(value.matches(row.get(attribute)) for attribute, value in self.values)

    def matches_constants(self, row: Mapping[str, Any]) -> bool:
        """Whether ``row`` matches on the constant positions only.

        Wildcard positions are ignored, so a row with NULL in a wildcard
        position still matches.  This is the applicability test used when
        deciding whether a CFD "applies to" a tuple.
        """
        return all(
            value.matches(row.get(attribute))
            for attribute, value in self.values
            if value.is_constant
        )

    def subsumes(self, other: "PatternTuple") -> bool:
        """Whether this pattern is at least as general as ``other``.

        A wildcard subsumes anything; a constant subsumes only the same
        constant.  Both tuples must range over the same attributes.
        """
        if set(self.attributes) != set(other.attributes):
            return False
        for attribute, value in self.values:
            other_value = other.value(attribute)
            if value.is_wildcard:
                continue
            if other_value.is_wildcard:
                return False
            if value.constant != other_value.constant:
                return False
        return True

    def encode(self) -> Dict[str, Any]:
        """Relational encoding (wildcards become the ``_`` token)."""
        return {attribute: value.encode() for attribute, value in self.values}

    def __str__(self) -> str:
        inner = ", ".join(f"{a}={v}" for a, v in self.values)
        return f"({inner})"
