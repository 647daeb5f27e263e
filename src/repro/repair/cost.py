"""The cost model for value-modification repairs.

Follows the cost-based framework of Bohannon et al. (SIGMOD 2005), which the
paper's data cleanser builds on: the cost of changing the value ``v`` of
attribute ``A`` in tuple ``t`` to ``v'`` is

    cost(t, A, v, v') = w(t, A) * dist(v, v')

where ``w(t, A)`` is a weight reflecting the confidence placed in the cell
(user-supplied, defaults to 1) and ``dist`` is a distance between values,
normalised to ``[0, 1]``.  For strings we use the Damerau–Levenshtein
distance divided by the length of the longer string; for numbers a relative
difference; changing a value to or from NULL costs 1.

The cost of a repair is the sum of the costs of its cell changes; the repair
algorithm searches for a candidate repair that "minimally differs" from the
original data under this measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple


def damerau_levenshtein(left: str, right: str) -> int:
    """Damerau–Levenshtein edit distance (insert/delete/substitute/transpose)."""
    if left == right:
        return 0
    len_left, len_right = len(left), len(right)
    if len_left == 0:
        return len_right
    if len_right == 0:
        return len_left
    previous_previous = [0] * (len_right + 1)
    previous = list(range(len_right + 1))
    for i in range(1, len_left + 1):
        current = [i] + [0] * len_right
        for j in range(1, len_right + 1):
            substitution_cost = 0 if left[i - 1] == right[j - 1] else 1
            current[j] = min(
                previous[j] + 1,  # deletion
                current[j - 1] + 1,  # insertion
                previous[j - 1] + substitution_cost,  # substitution
            )
            if (
                i > 1
                and j > 1
                and left[i - 1] == right[j - 2]
                and left[i - 2] == right[j - 1]
            ):
                current[j] = min(current[j], previous_previous[j - 2] + 1)
        previous_previous, previous = previous, current
    return previous[len_right]


def normalized_distance(
    old: Any, new: Any, distances: Optional[Dict[Tuple[str, str], int]] = None
) -> float:
    """Distance between two cell values, normalised to ``[0, 1]``.

    Equal values have distance 0.  A change involving NULL costs 1 (there is
    no evidence the values are related).  Numeric values use the relative
    difference capped at 1; everything else uses normalised string edit
    distance.

    ``distances`` memoises the edit distance per pair of texts (see
    :meth:`CostModel.memoised`).  It is keyed by the texts, not the
    values, because ``True``, ``1`` and ``1.0`` hash alike but print
    differently.
    """
    if old is None and new is None:
        return 0.0
    if old is None or new is None:
        return 1.0
    if old == new:
        return 0.0
    numeric_types = (int, float)
    if (
        isinstance(old, numeric_types)
        and isinstance(new, numeric_types)
        and not isinstance(old, bool)
        and not isinstance(new, bool)
    ):
        if float(old) == float(new):
            return 0.0
        denominator = max(abs(float(old)), abs(float(new)), 1.0)
        return min(abs(float(old) - float(new)) / denominator, 1.0)
    old_text, new_text = str(old), str(new)
    longest = max(len(old_text), len(new_text))
    if longest == 0:
        return 0.0
    if distances is None:
        edits = damerau_levenshtein(old_text, new_text)
    else:
        pair = (old_text, new_text)
        edits = distances.get(pair)
        if edits is None:
            edits = distances[pair] = damerau_levenshtein(old_text, new_text)
    return min(edits / longest, 1.0)


def similarity(old: Any, new: Any) -> float:
    """Similarity = 1 - normalised distance."""
    return 1.0 - normalized_distance(old, new)


@dataclass
class CostModel:
    """Weights and distances used to price candidate repairs.

    ``attribute_weights`` maps attribute names to a confidence in ``(0, +inf)``
    (higher weight = more expensive to change); ``cell_weights`` can override
    the weight of individual ``(tid, attribute)`` cells, which is how user
    confirmations ("this value is correct") are encoded.
    """

    attribute_weights: Dict[str, float] = field(default_factory=dict)
    cell_weights: Dict[Tuple[int, str], float] = field(default_factory=dict)
    default_weight: float = 1.0
    #: extra penalty multiplier applied when a repair invents a value that does
    #: not occur anywhere in the column (the "fresh value" of the papers).
    fresh_value_penalty: float = 1.5
    #: edit distance per pair of texts, kept only by a :meth:`memoised` copy
    _distances: Optional[Dict[Tuple[str, str], int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def memoised(self) -> "CostModel":
        """A copy of this model that computes each pair's edit distance once.

        The copy shares this model's weights and prices every change
        exactly as it does; it only remembers each edit distance it
        computed, for as long as the copy lives.  A repair prices the same
        pairs of values for many cells and candidates, so it prices
        through one copy per repair call and drops it with the call.
        """
        model = replace(self)
        model._distances = {}
        return model

    def weight(self, tid: int, attribute: str) -> float:
        """Weight of cell ``(tid, attribute)``."""
        if (tid, attribute) in self.cell_weights:
            return self.cell_weights[(tid, attribute)]
        return self.attribute_weights.get(attribute, self.default_weight)

    def set_cell_weight(self, tid: int, attribute: str, weight: float) -> None:
        """Pin the weight of one cell (e.g. user-confirmed values get a large weight)."""
        self.cell_weights[(tid, attribute)] = weight

    def protect_cell(self, tid: int, attribute: str, weight: float = 1_000_000.0) -> None:
        """Make a cell effectively immutable for the repair algorithm."""
        self.set_cell_weight(tid, attribute, weight)

    def change_cost(
        self,
        tid: int,
        attribute: str,
        old: Any,
        new: Any,
        fresh: bool = False,
    ) -> float:
        """Cost of changing cell ``(tid, attribute)`` from ``old`` to ``new``."""
        base = self.weight(tid, attribute) * normalized_distance(
            old, new, self._distances
        )
        if fresh:
            base *= self.fresh_value_penalty
        return base

    def repair_cost(self, changes: Mapping[Tuple[int, str], Tuple[Any, Any]]) -> float:
        """Total cost of a set of changes ``{(tid, attr): (old, new)}``."""
        return sum(
            self.change_cost(tid, attribute, old, new)
            for (tid, attribute), (old, new) in changes.items()
        )

    @classmethod
    def uniform(cls, weight: float = 1.0) -> "CostModel":
        """A cost model with the same weight for every cell."""
        return cls(default_weight=weight)
