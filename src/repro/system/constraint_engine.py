"""The constraint engine: storage and static analysis of CFDs.

"The core of SEMANDAQ is the constraint engine, which manages the CFDs used
to specify the consistency of the data."  This class registers CFDs
(specified textually or as objects, or discovered from reference data),
stores their pattern tableaux relationally inside a metadata database —
leveraging the same engine and indexes the data lives in — and runs the
static analyses: satisfiability checks on every addition, pairwise conflict
diagnosis, and redundancy/minimal-cover reporting.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..analysis.consistency import ConsistencyResult, check_consistency, pairwise_conflicts
from ..analysis.minimization import minimal_cover, redundancy_report
from ..backends.base import StorageBackend
from ..core.cfd import CFD
from ..core.parser import format_cfd, parse_cfd
from ..core.tableau import merge_cfds, tableau_size, tableau_to_relation
from ..engine.database import Database
from ..errors import CfdSchemaError, InconsistentCfdsError
from ..discovery.cfdminer import ConstantCfdMiner
from ..discovery.ctane import VariableCfdDiscoverer
from ..engine.relation import Relation


class ConstraintEngine:
    """Manages the CFDs of one Semandaq instance."""

    def __init__(
        self,
        database: Database,
        check_consistency_on_add: bool = True,
        backend: Optional[StorageBackend] = None,
    ):
        self.database = database
        self.check_consistency_on_add = check_consistency_on_add
        #: metadata database holding the relational encoding of the tableaux
        self.metadata = Database(name="semandaq_metadata")
        #: optional storage backend the tableaux are mirrored into, so the
        #: CFD encodings live in the same DBMS as the data (and benefit from
        #: its indexes), per the paper's design
        self.backend = backend
        self._cfds: Dict[str, CFD] = {}
        self._counter = 0

    # -- registration ---------------------------------------------------------------

    def add_cfd(self, cfd: CFD, name: Optional[str] = None) -> CFD:
        """Register a CFD; validates the schema and (optionally) consistency.

        The registered (and returned) CFD carries its constants typed by
        the relation's schema (:meth:`CFD.coerced_to`).
        """
        if name is not None or cfd.name is None:
            self._counter += 1
            cfd = CFD(
                relation=cfd.relation,
                lhs=cfd.lhs,
                rhs=cfd.rhs,
                patterns=cfd.patterns,
                name=name or f"cfd{self._counter}",
            )
        if self.database.has_relation(cfd.relation):
            cfd = cfd.coerced_to(self.database.relation(cfd.relation).schema)
        else:
            raise CfdSchemaError(
                f"CFD {cfd.identifier} targets unknown relation {cfd.relation!r}"
            )
        prospective = [c for c in self._cfds.values() if c.relation == cfd.relation]
        prospective.append(cfd)
        if self.check_consistency_on_add:
            result = check_consistency(prospective)
            if not result.consistent:
                raise InconsistentCfdsError(
                    f"adding {cfd.identifier} makes the CFD set inconsistent; "
                    f"conflicting core: {result.conflict}"
                )
        self._cfds[cfd.identifier] = cfd
        tableau = tableau_to_relation(cfd, f"tableau_{cfd.name}")
        self.metadata.add_relation(tableau, replace=True)
        if self.backend is not None:
            self.backend.add_relation(tableau, replace=True)
        return cfd

    def add_text(self, text: str, default_relation: Optional[str] = None) -> CFD:
        """Parse a textual CFD specification and register it."""
        self._counter += 1
        cfd = parse_cfd(text, default_relation=default_relation, name=f"cfd{self._counter}")
        return self.add_cfd(cfd, name=cfd.name)

    def add_many(self, cfds: Iterable[CFD]) -> List[CFD]:
        """Register several CFDs, keeping their order."""
        return [self.add_cfd(cfd, name=cfd.name) for cfd in cfds]

    def remove(self, identifier: str) -> None:
        """Forget a registered CFD."""
        cfd = self._cfds.pop(identifier, None)
        if cfd is not None and self.metadata.has_relation(f"tableau_{cfd.name}"):
            self.metadata.drop_relation(f"tableau_{cfd.name}")
        if (
            cfd is not None
            and self.backend is not None
            and self.backend.has_relation(f"tableau_{cfd.name}")
        ):
            self.backend.drop_relation(f"tableau_{cfd.name}")

    def clear(self) -> None:
        """Forget every registered CFD."""
        for identifier in list(self._cfds):
            self.remove(identifier)

    # -- access ------------------------------------------------------------------------

    def cfds(self, relation: Optional[str] = None) -> List[CFD]:
        """Registered CFDs, optionally filtered by target relation."""
        values = list(self._cfds.values())
        if relation is not None:
            values = [cfd for cfd in values if cfd.relation == relation]
        return values

    def get(self, identifier: str) -> CFD:
        """Look up one CFD by identifier."""
        if identifier not in self._cfds:
            raise CfdSchemaError(f"unknown CFD {identifier!r}")
        return self._cfds[identifier]

    def __len__(self) -> int:
        return len(self._cfds)

    def describe(self) -> List[Dict[str, Any]]:
        """One summary row per registered CFD (for the explorer's CFD list)."""
        return [
            {
                "id": cfd.identifier,
                "text": format_cfd(cfd),
                "patterns": len(cfd.patterns),
                "constant": cfd.is_constant_cfd(),
                "plain_fd": cfd.is_plain_fd(),
            }
            for cfd in self._cfds.values()
        ]

    # -- static analysis -----------------------------------------------------------------

    def consistency(self, relation: Optional[str] = None) -> ConsistencyResult:
        """Satisfiability of the registered CFDs (per relation)."""
        return check_consistency(self.cfds(relation))

    def conflicts(self, relation: Optional[str] = None) -> List[Tuple[str, str]]:
        """Pairs of registered CFDs that are mutually unsatisfiable."""
        return pairwise_conflicts(self.cfds(relation))

    def redundancy(self, relation: Optional[str] = None) -> List[Dict[str, Any]]:
        """Duplicate/implied diagnosis of the registered CFDs."""
        return redundancy_report(self.cfds(relation))

    def cover(self, relation: Optional[str] = None) -> List[CFD]:
        """A minimal cover of the registered CFDs."""
        return minimal_cover(self.cfds(relation))

    def tableau_statistics(self) -> Dict[str, int]:
        """Sizes the constraint engine reports: #CFDs, #pattern tuples, #tableaux."""
        cfds = self.cfds()
        return {
            "cfds": len(cfds),
            "pattern_tuples": tableau_size(cfds),
            "merged_cfds": len(merge_cfds(cfds)),
        }

    # -- discovery ---------------------------------------------------------------------------

    def discover_from(
        self,
        reference: Relation,
        min_support: int = 3,
        min_confidence: float = 1.0,
        max_lhs_size: int = 2,
        include_constant: bool = True,
        include_variable: bool = True,
        register: bool = False,
    ) -> List[CFD]:
        """Discover CFDs from clean reference data; optionally register them."""
        discovered: List[CFD] = []
        if include_constant:
            miner = ConstantCfdMiner(
                min_support=min_support,
                min_confidence=min_confidence,
                max_lhs_size=max_lhs_size,
            )
            discovered.extend(miner.mine_cfds(reference))
        if include_variable:
            discoverer = VariableCfdDiscoverer(
                min_support=max(min_support, 2),
                min_confidence=min_confidence,
                max_lhs_size=max_lhs_size,
            )
            discovered.extend(discoverer.discover_cfds(reference))
        if register:
            registered = []
            for cfd in discovered:
                try:
                    registered.append(self.add_cfd(cfd, name=cfd.name))
                except InconsistentCfdsError:
                    continue
            return registered
        return discovered
