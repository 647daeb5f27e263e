"""Incremental repair (IncRepair) for updates arriving after a repair.

Once a database has been cleansed, the paper's data monitor keeps it clean:
"invoking an incremental repair module … using the incremental CFD-based
repair algorithm" when updates arrive.  The IncRepair idea (Cong et al.,
VLDB 2007) is that the pre-existing data is trusted — it already satisfies
the CFDs — so only the *newly inserted or modified* tuples may be changed,
and only violations involving them need to be considered.

:class:`IncrementalRepairer` runs :class:`~repro.repair.repairer.BatchRepairer`
with exactly those restrictions (``restrict_to_tids``) over a
:class:`~repro.repair.source.ScopedRepairSource`.  The planner sees only
the updated tuples and the members of the LHS groups they can break,
found through the relation's maintained hash indexes, so a repair's cost
follows the update batch and its groups, not the relation.  Its
decisions match a restricted repair over a full copy of the relation
change for change.  When a group's trusted members carry a value, the
updated members take one of those values; a group whose trusted members
disagree stays a residual violation.

The returned :class:`~repro.repair.repairer.Repair` has ``source ==
"scoped"``: its ``original`` and ``repaired`` relations hold only the
tuples the planner saw, and its change list is the whole repair.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.cfd import CFD
from ..core.satisfaction import violating_tids
from ..engine.relation import Relation
from ..errors import RepairError
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .cost import CostModel
from .repairer import BatchRepairer, CellChange, Repair
from .source import ScopedRepairSource


class IncrementalRepairer:
    """Repairs only the tuples touched by an update batch."""

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        max_iterations: int = 25,
        telemetry: Optional[Telemetry] = None,
    ):
        self.cost_model = cost_model or CostModel.uniform()
        self.max_iterations = max_iterations
        #: receives ``repair.incremental_rows`` (tuples the planner saw) and
        #: ``repair.incremental_residual`` (violations left in place)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    def repair_updates(
        self,
        relation: Relation,
        cfds: Sequence[CFD],
        updated_tids: Iterable[int],
    ) -> Repair:
        """Repair violations involving ``updated_tids``, modifying only those tuples.

        ``relation`` is the current (already updated) relation and is not
        modified.  The returned :class:`~repro.repair.repairer.Repair`
        changes only updated tuples; its ``original`` and ``repaired`` hold
        just the working set the planner saw (``source == "scoped"``).
        """
        updated = {tid for tid in updated_tids if tid in relation}
        repairer = BatchRepairer(
            cost_model=self.cost_model,
            max_iterations=self.max_iterations,
            restrict_to_tids=updated,
        )
        repair = repairer.repair_with_source(
            ScopedRepairSource(relation, updated), cfds
        )
        self.telemetry.inc("repair.incremental_rows", len(repair.original))
        self.telemetry.inc("repair.incremental_residual", repair.residual_violations)
        return repair

    def insert_and_repair(
        self,
        relation: Relation,
        cfds: Sequence[CFD],
        rows: Sequence[Mapping[str, Any]],
    ) -> Tuple[List[int], Repair]:
        """Insert ``rows`` then repair any violations they introduce.

        Returns the tids assigned to the inserted rows and the repair of the
        resulting relation.  The inserted rows are the only tuples the repair
        is allowed to modify.
        """
        new_tids = [relation.insert(dict(row)) for row in rows]
        repair = self.repair_updates(relation, cfds, new_tids)
        return new_tids, repair

    def verify_untouched(self, repair: Repair, protected_tids: Iterable[int]) -> None:
        """Raise :class:`RepairError` if the repair modified a protected tuple.

        Used in tests and by the data monitor as a safety net: incremental
        repair must never silently rewrite previously cleansed data.
        """
        protected = set(protected_tids)
        offending = [
            change for change in repair.changes if change.tid in protected
        ]
        if offending:
            cells = [(change.tid, change.attribute) for change in offending]
            raise RepairError(
                f"incremental repair modified protected cells: {cells}"
            )


def remaining_dirty_tids(relation: Relation, cfds: Sequence[CFD]) -> Set[int]:
    """Tuples still involved in violations — the residue IncRepair could not fix."""
    return violating_tids(relation, cfds)
