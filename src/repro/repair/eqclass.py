"""Equivalence classes of cells for the repair algorithm.

The repair algorithms of the companion papers (SIGMOD 2005, VLDB 2007) do
not assign concrete values eagerly.  Instead they maintain *equivalence
classes* of cells ``(tid, attribute)``: all cells in one class must receive
the same value in the final repair.  Resolving a multi-tuple violation of a
variable CFD merges the RHS cells of the conflicting tuples into one class;
resolving a constant-RHS violation pins the class of the offending cell to
that constant.  Deferring the choice of the concrete value to the end avoids
oscillation and lets the algorithm pick, per class, the value that minimises
the total modification cost.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..errors import RepairError
from .cost import CostModel

Cell = Tuple[int, str]


class EquivalenceClasses:
    """Union-find over cells, with optional pinned target constants per class."""

    def __init__(self) -> None:
        self._parent: Dict[Cell, Cell] = {}
        self._rank: Dict[Cell, int] = {}
        #: class root -> pinned constant (set by constant-RHS resolutions)
        self._target: Dict[Cell, Any] = {}

    # -- union-find ----------------------------------------------------------------

    def add(self, cell: Cell) -> Cell:
        """Register ``cell`` (idempotent) and return its root."""
        if cell not in self._parent:
            self._parent[cell] = cell
            self._rank[cell] = 0
        return self.find(cell)

    def find(self, cell: Cell) -> Cell:
        """Return the representative of ``cell``'s class (path compression)."""
        if cell not in self._parent:
            return self.add(cell)
        root = cell
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[cell] != root:
            self._parent[cell], cell = root, self._parent[cell]
        return root

    def union(self, left: Cell, right: Cell) -> Cell:
        """Merge the classes of ``left`` and ``right``; returns the new root.

        Pinned targets are propagated; merging two classes pinned to
        *different* constants raises :class:`RepairError` (the caller must
        resolve such conflicts by other means, e.g. changing an LHS value).
        """
        root_left, root_right = self.find(left), self.find(right)
        if root_left == root_right:
            return root_left
        target_left = self._target.get(root_left)
        target_right = self._target.get(root_right)
        if (
            target_left is not None
            and target_right is not None
            and target_left != target_right
        ):
            raise RepairError(
                f"cannot merge classes pinned to different constants "
                f"{target_left!r} and {target_right!r}"
            )
        if self._rank[root_left] < self._rank[root_right]:
            root_left, root_right = root_right, root_left
        self._parent[root_right] = root_left
        if self._rank[root_left] == self._rank[root_right]:
            self._rank[root_left] += 1
        merged_target = target_left if target_left is not None else target_right
        self._target.pop(root_left, None)
        self._target.pop(root_right, None)
        if merged_target is not None:
            self._target[root_left] = merged_target
        return root_left

    def together(self, left: Cell, right: Cell) -> bool:
        """Whether the two cells are currently in the same class."""
        return self.find(left) == self.find(right)

    # -- targets ----------------------------------------------------------------------

    def pin(self, cell: Cell, constant: Any) -> None:
        """Pin the class of ``cell`` to ``constant``.

        Pinning a class already pinned to a different constant raises
        :class:`RepairError`.
        """
        root = self.find(cell)
        existing = self._target.get(root)
        if existing is not None and existing != constant:
            raise RepairError(
                f"class of {cell} already pinned to {existing!r}, cannot pin to {constant!r}"
            )
        self._target[root] = constant

    def pinned_value(self, cell: Cell) -> Optional[Any]:
        """The pinned constant of ``cell``'s class, if any."""
        return self._target.get(self.find(cell))

    def is_pinned(self, cell: Cell) -> bool:
        """Whether ``cell``'s class is pinned to a constant."""
        return self.find(cell) in self._target

    # -- enumeration -------------------------------------------------------------------

    def classes(self) -> List[List[Cell]]:
        """All classes as lists of cells (singletons included)."""
        grouped: Dict[Cell, List[Cell]] = defaultdict(list)
        for cell in self._parent:
            grouped[self.find(cell)].append(cell)
        return [sorted(members) for _root, members in sorted(grouped.items())]

    def members(self, cell: Cell) -> List[Cell]:
        """All cells in the same class as ``cell``."""
        root = self.find(cell)
        return sorted(c for c in self._parent if self.find(c) == root)

    def __len__(self) -> int:
        return len({self.find(cell) for cell in self._parent})

    def __contains__(self, cell: Cell) -> bool:
        return cell in self._parent

    # -- value selection ------------------------------------------------------------------

    def choose_value(
        self,
        cell: Cell,
        current_values: Dict[Cell, Any],
        cost_model: CostModel,
        candidates: Optional[Iterable[Any]] = None,
        only: Optional[Iterable[Any]] = None,
    ) -> Tuple[Any, float, List[Tuple[Any, float]]]:
        """Pick the value for ``cell``'s class that minimises total change cost.

        Returns ``(best_value, best_cost, ranked_alternatives)`` where the
        alternatives are ``(value, cost)`` pairs sorted by increasing cost —
        exactly what the cleansing-review pop-up of the paper displays.

        ``candidates`` adds values to the members' own; ``only`` replaces
        them, so the class can take nothing else (incremental repair passes
        the values its protected members carry).  If the class is pinned,
        the pinned constant wins regardless of cost (but alternatives are
        still ranked for display).
        """
        members = self.members(cell)
        values = list(only) if only is not None else [
            current_values.get(member) for member in members
        ]
        candidate_pool: List[Any] = []
        for value in values:
            if value is not None and value not in candidate_pool:
                candidate_pool.append(value)
        if candidates:
            for value in candidates:
                if value is not None and value not in candidate_pool:
                    candidate_pool.append(value)
        pinned = self.pinned_value(cell)
        if pinned is not None and pinned not in candidate_pool:
            candidate_pool.append(pinned)
        if not candidate_pool:
            raise RepairError(f"no candidate values for class of {cell}")
        ranked: List[Tuple[Any, float]] = []
        for candidate in candidate_pool:
            total = sum(
                cost_model.change_cost(member[0], member[1], current_values.get(member), candidate)
                for member in members
            )
            ranked.append((candidate, total))
        ranked.sort(key=lambda pair: (pair[1], str(pair[0])))
        if pinned is not None:
            best_value = pinned
            best_cost = next(cost for value, cost in ranked if value == pinned)
        else:
            best_value, best_cost = ranked[0]
        return best_value, best_cost, ranked
