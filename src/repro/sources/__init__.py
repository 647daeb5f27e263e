"""Shared tuple sources: the read-access half of the backend pushdown.

PR 7 taught the *repair* pipeline to plan over a partial, backend-resident
view of the data.  This package extracts the read-access half of that
machinery into a layer every consumer shares: a :class:`TupleSource`
answers the relational read questions — row fetches, per-attribute value
frequencies, per-group membership counts and value histograms, pattern
applicability counts, keyset-paged scans — either from an in-memory
:class:`~repro.engine.relation.Relation` (:class:`NativeTupleSource`, the
parity oracle) or from the storage backend's resident copy
(:class:`BackendTupleSource`, which compiles each question to one of the
generator's cached, budget-chunked plans: ``value_freq`` / ``group_stats``
/ ``covering_members`` / ``row_fetch`` plus the ``majority_value`` /
``attr_freq`` / ``page_fetch`` kinds this layer introduced).

Consumers: the repair closure (:mod:`repro.repair.source`), the resident
auditor (:mod:`repro.audit.report`) and the resident explorer
(:mod:`repro.explorer.navigation`).
"""

from .base import NO_RHS_FILTER, GroupKey, TupleSource
from .native import NativeTupleSource, native_column_frequencies
from .backend import BackendTupleSource

__all__ = [
    "GroupKey",
    "NO_RHS_FILTER",
    "TupleSource",
    "NativeTupleSource",
    "BackendTupleSource",
    "native_column_frequencies",
]
