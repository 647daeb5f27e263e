"""The first-class changeset flowing through the update path: ``DeltaBatch``.

A :class:`DeltaBatch` accumulates the *net* per-tuple effect of a whole
update batch and ships it to a backend in one
:meth:`~repro.backends.base.StorageBackend.apply_delta_batch` call — one
transaction on SQLite (``executemany`` per operation kind, single commit).
After the bulk load it is the only way a stored row changes: the data
monitor ships each applied update batch (and each incremental repair) as
one, and so does the facade's ``apply_repair``.

Recording is **coalescing**: operations on the same tuple id collapse into
their net effect, so a batch never carries two statements for one tuple:

* insert then update  → one insert of the final row;
* insert then delete  → nothing (the tuple never reaches the backend);
* update then update  → one update with the merged changes;
* update then delete  → one delete;
* delete then insert  → a *replace* (shipped as delete + insert of the new
  row under the same tid — backends apply all deletes before all inserts,
  so the order is always safe).

Sequences that could not have happened against a live relation (updating a
deleted tuple, inserting an already-live tid twice) raise
:class:`~repro.errors.BackendError` at recording time, before anything
reaches a backend.

Tuple ids are explicit throughout: the recorder (typically the
:class:`~repro.detection.incremental.IncrementalDetector`, whose working
store assigns tids) owns tid assignment, which is what keeps the working
store and every backend copy aligned tid for tid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..errors import BackendError

#: internal op kinds a tuple id can net out to
_INSERT = "insert"
_UPDATE = "update"
_DELETE = "delete"
_REPLACE = "replace"  # delete of the stored row, then insert of a new one


@dataclass
class DeltaBatch:
    """The coalesced net effect of a batch of updates on one relation."""

    #: relation the batch applies to (informational; backends take the
    #: target name explicitly in ``apply_delta_batch``)
    relation: Optional[str] = None
    #: tid -> (kind, payload); payload is the row for inserts/replaces, the
    #: change mapping for updates, ``None`` for deletes
    _ops: Dict[int, Tuple[str, Any]] = field(default_factory=dict)
    #: operations recorded into the batch before coalescing; compared with
    #: :attr:`statement_count` this is the coalescing win the telemetry
    #: layer surfaces (ops recorded vs ops shipped)
    ops_recorded: int = 0

    # -- recording -------------------------------------------------------------

    def record_insert(self, tid: int, row: Mapping[str, Any]) -> None:
        """Record the insertion of ``row`` under ``tid``."""
        kind = self._ops.get(tid, (None,))[0]
        if kind is None:
            self._ops[tid] = (_INSERT, dict(row))
        elif kind == _DELETE:
            self._ops[tid] = (_REPLACE, dict(row))
        else:
            raise BackendError(f"tid {tid} is already live in this batch")
        self.ops_recorded += 1

    def record_update(self, tid: int, changes: Mapping[str, Any]) -> None:
        """Record a cell-value update of the tuple under ``tid``."""
        if not changes:
            return
        kind, payload = self._ops.get(tid, (None, None))
        if kind is None:
            self._ops[tid] = (_UPDATE, dict(changes))
        elif kind in (_INSERT, _REPLACE):
            self._ops[tid] = (kind, {**payload, **changes})
        elif kind == _UPDATE:
            self._ops[tid] = (_UPDATE, {**payload, **changes})
        else:
            raise BackendError(f"tid {tid} was deleted earlier in this batch")
        self.ops_recorded += 1

    def record_delete(self, tid: int) -> None:
        """Record the deletion of the tuple under ``tid``."""
        kind = self._ops.get(tid, (None,))[0]
        if kind == _INSERT:
            del self._ops[tid]  # never existed as far as the backend knows
        elif kind in (_UPDATE, _REPLACE, None):
            self._ops[tid] = (_DELETE, None)
        else:
            raise BackendError(f"tid {tid} was already deleted in this batch")
        self.ops_recorded += 1

    # -- grouped views ---------------------------------------------------------

    @property
    def deletes(self) -> List[int]:
        """Tids to delete (including the delete half of every replace)."""
        return [
            tid for tid, (kind, _) in self._ops.items() if kind in (_DELETE, _REPLACE)
        ]

    @property
    def inserts(self) -> List[Tuple[int, Dict[str, Any]]]:
        """``(tid, row)`` pairs to insert (including the insert half of replaces)."""
        return [
            (tid, payload)
            for tid, (kind, payload) in self._ops.items()
            if kind in (_INSERT, _REPLACE)
        ]

    @property
    def updates(self) -> List[Tuple[int, Dict[str, Any]]]:
        """``(tid, changes)`` pairs to update in place."""
        return [
            (tid, payload)
            for tid, (kind, payload) in self._ops.items()
            if kind == _UPDATE
        ]

    def grouped_updates(self) -> List[Tuple[Tuple[str, ...], List[Tuple[int, Dict[str, Any]]]]]:
        """Updates grouped by their (sorted) changed-attribute set.

        Each group shares one SQL statement shape, so a backend can run one
        ``executemany`` per group instead of one statement per tuple.
        """
        groups: Dict[Tuple[str, ...], List[Tuple[int, Dict[str, Any]]]] = {}
        for tid, changes in self.updates:
            groups.setdefault(tuple(sorted(changes)), []).append((tid, changes))
        return list(groups.items())

    # -- inspection ------------------------------------------------------------

    def is_empty(self) -> bool:
        """Whether the batch nets out to no change at all."""
        return not self._ops

    def __len__(self) -> int:
        """Number of tuples the batch touches (a replace counts once)."""
        return len(self._ops)

    @property
    def statement_count(self) -> int:
        """Single-statement operations this batch replaces (replace = 2)."""
        return sum(
            2 if kind == _REPLACE else 1 for kind, _ in self._ops.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaBatch(relation={self.relation!r}, inserts={len(self.inserts)}, "
            f"updates={len(self.updates)}, deletes={len(self.deletes)})"
        )
