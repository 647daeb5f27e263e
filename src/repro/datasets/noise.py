"""Controlled error injection with ground truth.

The paper's data is proprietary customer data; this reproduction instead
generates clean data and *injects* errors at a controlled rate, recording
exactly which cells were corrupted and what their true values were.  That
ground truth is what lets the REP-QUALITY benchmark measure repair precision
and recall, the way the companion repair paper evaluates its algorithms.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..engine.relation import Relation

Cell = Tuple[int, str]

#: Error kinds the injector supports.
TYPO = "typo"
SWAP = "swap"
NULL = "null"
ALL_KINDS = (TYPO, SWAP, NULL)


@dataclass
class NoiseResult:
    """A dirty copy of a relation plus the ground truth of every corruption."""

    clean: Relation
    dirty: Relation
    corrupted: Dict[Cell, Tuple[Any, Any]] = field(default_factory=dict)

    @property
    def corrupted_cells(self) -> List[Cell]:
        """The corrupted ``(tid, attribute)`` cells."""
        return sorted(self.corrupted)

    @property
    def corruption_rate(self) -> float:
        """Fraction of cells corrupted."""
        total_cells = len(self.clean) * len(self.clean.attribute_names)
        if total_cells == 0:
            return 0.0
        return len(self.corrupted) / total_cells


def _typo(value: str, rng: random.Random) -> str:
    """Introduce a single-character edit into ``value``."""
    if not value:
        return value + rng.choice(string.ascii_uppercase)
    position = rng.randrange(len(value))
    operation = rng.choice(("substitute", "delete", "insert", "transpose"))
    characters = string.ascii_uppercase + string.digits
    if operation == "substitute":
        replacement = rng.choice(characters)
        while replacement == value[position]:
            replacement = rng.choice(characters)
        return value[:position] + replacement + value[position + 1 :]
    if operation == "delete" and len(value) > 1:
        return value[:position] + value[position + 1 :]
    if operation == "transpose" and len(value) > 1:
        position = min(position, len(value) - 2)
        return (
            value[:position]
            + value[position + 1]
            + value[position]
            + value[position + 2 :]
        )
    return value[:position] + rng.choice(characters) + value[position:]


def inject_noise(
    relation: Relation,
    rate: float,
    seed: int = 0,
    attributes: Optional[Sequence[str]] = None,
    kinds: Sequence[str] = (TYPO, SWAP),
) -> NoiseResult:
    """Corrupt a fraction ``rate`` of the cells of ``relation``.

    ``rate`` is interpreted per cell over the chosen ``attributes`` (all
    attributes by default).  ``kinds`` selects the error types:

    * ``"typo"`` — a one-character edit of the string value;
    * ``"swap"`` — replace the value with a different value drawn from the
      same column (a plausible but wrong value, the hardest case to catch);
    * ``"null"`` — blank the cell.

    The original relation is not modified; tuple ids are preserved in the
    dirty copy so ground truth can be joined back cell by cell.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("noise rate must be between 0 and 1")
    unknown = set(kinds) - set(ALL_KINDS)
    if unknown:
        raise ValueError(f"unknown noise kinds: {sorted(unknown)}")
    rng = random.Random(seed)
    target_attributes = list(attributes or relation.attribute_names)
    dirty = relation.copy()
    corrupted: Dict[Cell, Tuple[Any, Any]] = {}

    # Column pools for the swap kind.
    pools: Dict[str, List[Any]] = {
        attribute: relation.distinct_values(attribute) for attribute in target_attributes
    }

    for tid, row in relation.rows():
        for attribute in target_attributes:
            if rng.random() >= rate:
                continue
            old_value = row.get(attribute)
            kind = rng.choice(tuple(kinds))
            new_value: Any
            if kind == NULL:
                new_value = None
            elif kind == SWAP:
                candidates = [value for value in pools[attribute] if value != old_value]
                if not candidates:
                    continue
                new_value = rng.choice(candidates)
            else:  # typo
                if old_value is None:
                    continue
                new_value = _typo(str(old_value), rng)
            if new_value == old_value:
                continue
            dirty.update(tid, {attribute: new_value})
            corrupted[(tid, attribute)] = (old_value, new_value)
    return NoiseResult(clean=relation, dirty=dirty, corrupted=corrupted)
