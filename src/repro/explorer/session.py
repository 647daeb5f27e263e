"""An exploration session: stateful drill-down with breadcrumbs.

Wraps :class:`~repro.explorer.navigation.DataExplorer` with the notion of a
current position (CFD → pattern → LHS values → RHS value), mirroring how a
user walks through the four tables of the paper's Fig. 2 and can always step
back one level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.cfd import CFD
from ..detection.violations import ViolationReport
from ..engine.relation import Relation
from ..errors import ExplorerError
from ..sources.base import TupleSource
from .navigation import CfdSummary, DataExplorer, LhsMatch, PatternSummary, RhsValue


@dataclass
class Breadcrumb:
    """One step of the drill-down path."""

    level: str
    label: str
    value: Any


class ExplorationSession:
    """A cursor over the CFD → pattern → LHS → RHS → tuples drill-down."""

    LEVELS = ("cfd", "pattern", "lhs", "rhs")

    def __init__(
        self,
        relation: "Relation | TupleSource",
        cfds: Sequence[CFD],
        report: ViolationReport,
    ):
        self.explorer = DataExplorer(relation, cfds, report)
        self._cfd_id: Optional[str] = None
        self._pattern_index: Optional[int] = None
        self._lhs_values: Optional[Tuple[Any, ...]] = None
        self._rhs_value: Optional[Any] = None
        #: keyset cursor of :meth:`next_page` (last tid served, -1 = start)
        self._page_cursor: int = -1
        #: keyset cursor of :meth:`more_options` (last group served, None = start)
        self._lhs_cursor: Optional[LhsMatch] = None

    # -- navigation --------------------------------------------------------------------

    def options(self) -> List[Any]:
        """The choices available at the current level.

        At the LHS level this is the first page of the group listing
        (:meth:`DataExplorer.lhs_matches`: violating groups first, then
        the clean ones in key order), and :meth:`more_options` continues
        it.  The other levels' lists are short and come whole.
        """
        if self._cfd_id is None:
            return self.explorer.list_cfds()
        if self._pattern_index is None:
            return self.explorer.patterns_for(self._cfd_id)
        if self._lhs_values is None:
            self._lhs_cursor = None
            return self.more_options()
        if self._rhs_value is None:
            return self.explorer.rhs_values(
                self._cfd_id, self._pattern_index, self._lhs_values
            )
        return self.explorer.tuples_for(
            self._cfd_id, self._pattern_index, self._lhs_values, self._rhs_value
        )

    def select(self, choice: Any) -> List[Any]:
        """Descend one level by selecting ``choice`` and return the next options.

        ``choice`` may be the option object returned by :meth:`options` or the
        underlying key (CFD id, pattern index, LHS value tuple, RHS value).
        """
        if self._cfd_id is None:
            self._cfd_id = choice.cfd_id if isinstance(choice, CfdSummary) else str(choice)
        elif self._pattern_index is None:
            self._pattern_index = (
                choice.pattern_index if isinstance(choice, PatternSummary) else int(choice)
            )
        elif self._lhs_values is None:
            self._lhs_values = (
                tuple(choice.lhs_values) if isinstance(choice, LhsMatch) else tuple(choice)
            )
        elif self._rhs_value is None:
            self._rhs_value = choice.value if isinstance(choice, RhsValue) else choice
        else:
            raise ExplorerError("already at the tuple level; call back() to go up")
        self._rewind()
        return self.options()

    def back(self) -> List[Any]:
        """Step one level up and return the options at that level."""
        if self._rhs_value is not None:
            self._rhs_value = None
        elif self._lhs_values is not None:
            self._lhs_values = None
        elif self._pattern_index is not None:
            self._pattern_index = None
        elif self._cfd_id is not None:
            self._cfd_id = None
        else:
            raise ExplorerError("already at the top level")
        self._rewind()
        return self.options()

    def reset(self) -> None:
        """Return to the top level."""
        self._cfd_id = None
        self._pattern_index = None
        self._lhs_values = None
        self._rhs_value = None
        self._rewind()

    def _rewind(self) -> None:
        self._page_cursor = -1
        self._lhs_cursor = None

    def more_options(self, page_size: int = 50) -> List[LhsMatch]:
        """The next page of the LHS group listing, after the last group served.

        Available at the LHS level, where :meth:`options` serves the first
        page.  Each call advances the cursor; an empty or short page means
        the listing is exhausted.  Navigation (:meth:`select` /
        :meth:`back` / :meth:`reset`) rewinds the cursor.
        """
        if self.level != "lhs":
            raise ExplorerError("more_options pages the LHS level only")
        page = self.explorer.lhs_matches(
            self._cfd_id,
            self._pattern_index,
            after=self._lhs_cursor,
            page_size=page_size,
        )
        if page:
            self._lhs_cursor = page[-1]
        return page

    def next_page(self, page_size: int = 50) -> List[Tuple[int, Dict[str, Any]]]:
        """The next keyset page of tuples at the current drill-down position.

        Available once an LHS combination is selected (the RHS filter, if
        any, carries over).  Each call hydrates one page and advances the
        cursor; an empty or short page means the listing is exhausted.
        Navigation (:meth:`select` / :meth:`back` / :meth:`reset`) rewinds
        the cursor.
        """
        if self._cfd_id is None or self._pattern_index is None or self._lhs_values is None:
            raise ExplorerError("select an LHS combination before paging tuples")
        page = self.explorer.tuples_page(
            self._cfd_id,
            self._pattern_index,
            self._lhs_values,
            rhs_value=self._rhs_value,
            after_tid=self._page_cursor,
            page_size=page_size,
        )
        if page:
            self._page_cursor = page[-1][0]
        return page

    # -- state -----------------------------------------------------------------------------

    @property
    def level(self) -> str:
        """The level of the *next* choice to make."""
        if self._cfd_id is None:
            return "cfd"
        if self._pattern_index is None:
            return "pattern"
        if self._lhs_values is None:
            return "lhs"
        if self._rhs_value is None:
            return "rhs"
        return "tuples"

    def breadcrumbs(self) -> List[Breadcrumb]:
        """The path selected so far."""
        crumbs: List[Breadcrumb] = []
        if self._cfd_id is not None:
            crumbs.append(Breadcrumb("cfd", "CFD", self._cfd_id))
        if self._pattern_index is not None:
            crumbs.append(Breadcrumb("pattern", "pattern", self._pattern_index))
        if self._lhs_values is not None:
            crumbs.append(Breadcrumb("lhs", "LHS values", self._lhs_values))
        if self._rhs_value is not None:
            crumbs.append(Breadcrumb("rhs", "RHS value", self._rhs_value))
        return crumbs

    def explain(self, tid: int) -> Dict[str, Any]:
        """Reverse exploration: why is tuple ``tid`` dirty?"""
        return self.explorer.explain_tuple(tid)
