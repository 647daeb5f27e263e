"""The backend tuple source: every read question becomes a pushed-down plan.

Answers the :class:`~repro.sources.base.TupleSource` protocol from the
storage backend's resident copy alone — no ``to_relation`` / ``get_row`` /
``iter_rows`` on any path (the ``ForbiddenReadBackend`` pins in
``tests/audit`` / ``tests/explorer`` / ``tests/repair`` enforce this).
Each method compiles to one of the generator's cached,
budget-chunked plan kinds:

========================  =====================================================
question                  plan kind
========================  =====================================================
``fetch_rows``            ``row_fetch`` (flat tid ``IN`` list, padded chunks)
``dirty_region``          ``row_fetch`` of a report's dirty tids, one pass
``value_frequencies``     ``value_freq`` (one ``GROUP BY`` per attribute)
``group_member_counts``   ``group_stats`` (sargable restriction + count)
``covering_member_tids``  ``covering_members`` (index-only enumeration)
``majority_values``       ``majority_value`` (per-group RHS histogram)
``pattern_group_freq``    ``attr_freq`` (keyset page of the per-pattern LHS
                          histogram, in key order)
``applicable_count``      ``attr_freq`` (OR-of-applicability count)
``page``                  ``page_fetch`` (keyset ``_tid > ?`` + ``LIMIT``)
``row_count``             — (catalog operation, no rows shipped)
========================  =====================================================

Values decode on the way back through
:func:`~repro.backends.sqlite.decode_backend_value`, so group keys,
histograms and fetched rows compare equal to the native source's Python
values.  A fetched row decodes only its columns of a type in
:data:`~repro.backends.sqlite.DECODED_DTYPES`, picked once per schema.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..backends.base import StorageBackend
from ..backends.sqlite import DECODED_DTYPES, decode_backend_value
from ..core.cfd import CFD
from ..detection.sqlgen import (
    LHS_COLUMN_PREFIX,
    DetectionSqlGenerator,
    SqlQuery,
)
from ..engine.types import DataType, RelationSchema
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .base import NO_RHS_FILTER, GroupKey, TupleSource

class BackendTupleSource(TupleSource):
    """Read-side pushdown over one backend-resident relation.

    ``generator`` may be shared; when omitted a private one is built
    lazily under ``backend``'s parameter budget.  Pattern constants bind
    typed by their column, so an untyped CFD (text constants on a
    non-STRING column) reads the same rows the detector's typed copy
    does.
    """

    resident = True

    def __init__(
        self,
        backend: StorageBackend,
        relation_name: str,
        telemetry: Optional[Telemetry] = None,
        generator: Optional[DetectionSqlGenerator] = None,
    ):
        self.backend = backend
        self.relation_name = relation_name
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._schema: Optional[RelationSchema] = None
        #: each column's dtype by name, read off the schema once
        self._dtypes: Optional[Dict[str, DataType]] = None
        #: the columns a fetched row decodes, worked out from the schema once
        self._decoded: Optional[List[str]] = None
        self._generator = generator
        #: SQL issued by this source (tests and debugging read this)
        self.last_sql: List[str] = []

    # -- plumbing ---------------------------------------------------------------

    def schema(self) -> RelationSchema:
        if self._schema is None:
            self._schema = self.backend.schema(self.relation_name)
        return self._schema

    def generator(self) -> DetectionSqlGenerator:
        if self._generator is None:
            self._generator = DetectionSqlGenerator(
                self.schema(),
                max_parameters=self.backend.max_parameters,
                telemetry=self.telemetry,
            )
        return self._generator

    def _execute(self, query: SqlQuery) -> List[Dict[str, Any]]:
        self.last_sql.append(query.sql)
        if not self.telemetry.active:
            return self.backend.execute(query.sql, query.parameters)
        with self.telemetry.tag_statements(query.kind):
            return self.backend.execute(query.sql, query.parameters)

    def _column_dtypes(self) -> Dict[str, DataType]:
        if self._dtypes is None:
            self._dtypes = {attr.name: attr.dtype for attr in self.schema().attributes}
        return self._dtypes

    def _decode(self, attribute: str, value: Any) -> Any:
        return decode_backend_value(self._column_dtypes()[attribute], value)

    def _decode_key(self, cfd: CFD, row: Dict[str, Any]) -> GroupKey:
        dtypes = self._column_dtypes()
        return tuple(
            decode_backend_value(dtypes[attr], row[LHS_COLUMN_PREFIX + attr])
            for attr in cfd.lhs
        )

    def _decode_row(self, row: Dict[str, Any]) -> Dict[str, Any]:
        """A ``row_fetch`` / ``page_fetch`` row as engine values, its tid dropped.

        Both plans select ``tid`` and then every attribute, nothing else,
        so a row decodes as a copy without its tid; only the columns whose
        dtype is in :data:`DECODED_DTYPES` are decoded.
        """
        dtypes = self._column_dtypes()
        if self._decoded is None:
            self._decoded = [
                attr for attr, dtype in dtypes.items() if dtype in DECODED_DTYPES
            ]
        values = dict(row)
        del values["tid"]
        for attr in self._decoded:
            values[attr] = decode_backend_value(dtypes[attr], values[attr])
        return values

    # -- protocol ---------------------------------------------------------------

    def row_count(self) -> int:
        return int(self.backend.row_count(self.relation_name))

    def fetch_rows(self, tids: Sequence[int]) -> Dict[int, Dict[str, Any]]:
        rows: Dict[int, Dict[str, Any]] = {}
        for plan in self.generator().row_fetch_plans(list(tids)):
            for row in self._execute(plan):
                tid = row["tid"]
                if tid in rows:
                    continue  # padding repeats the last tid
                rows[tid] = self._decode_row(row)
        return rows

    def value_frequencies(self) -> Dict[str, Counter]:
        generator = self.generator()
        frequencies: Dict[str, Counter] = {}
        for attribute in self.schema().attribute_names:
            rows = self._execute(generator.value_freq_query(attribute))
            decoded = [
                (self._decode(attribute, row["value"]), int(row["freq"]), row["first_tid"])
                for row in rows
            ]
            # (freq DESC, first-encounter tid ASC) insertion order makes
            # Counter.most_common — a stable sort on count — break ties
            # exactly like the native first-encounter Counter.
            decoded.sort(key=lambda item: (-item[1], item[2]))
            counter: Counter = Counter()
            for value, freq, _first_tid in decoded:
                counter[value] = freq
            frequencies[attribute] = counter
        return frequencies

    def group_member_counts(
        self, cfd: CFD, rhs_attribute: str, keys: Sequence[GroupKey]
    ) -> Dict[GroupKey, int]:
        counts: Dict[GroupKey, int] = {}
        for plan in self.generator().group_stats_plans(cfd, rhs_attribute, list(keys)):
            for row in self._execute(plan):
                counts[self._decode_key(cfd, row)] = int(row["member_count"])
        return counts

    def covering_member_tids(
        self, cfd: CFD, rhs_attribute: str, keys: Sequence[GroupKey]
    ) -> List[int]:
        tids: List[int] = []
        for plan in self.generator().covering_members_plans(
            cfd, rhs_attribute, list(keys)
        ):
            for row in self._execute(plan):
                tids.append(row["tid"])
        return tids

    def majority_values(
        self, cfd: CFD, rhs_attribute: str, keys: Sequence[GroupKey]
    ) -> Dict[GroupKey, Counter]:
        histograms: Dict[GroupKey, Counter] = {}
        for plan in self.generator().majority_value_plans(
            cfd, rhs_attribute, list(keys)
        ):
            for row in self._execute(plan):
                key = self._decode_key(cfd, row)
                value = self._decode(rhs_attribute, row["value"])
                histograms.setdefault(key, Counter())[value] += int(row["freq"])
        return histograms

    def pattern_group_freq(
        self,
        cfd: CFD,
        pattern_index: int,
        after: Optional[GroupKey] = None,
        limit: Optional[int] = None,
    ) -> Dict[GroupKey, int]:
        keyset = self.generator().attr_freq_query(
            cfd, pattern_index, after=after is not None
        )
        # a negative LIMIT is no limit
        params = keyset.parameters + tuple(after or ()) + (
            -1 if limit is None else limit,
        )
        query = SqlQuery(
            keyset.sql, params, kind=keyset.kind, pattern_index=keyset.pattern_index
        )
        freq: Dict[GroupKey, int] = {}
        for row in self._execute(query):
            freq[self._decode_key(cfd, row)] = int(row["freq"])
        return freq

    def applicable_count(self, subs: Sequence[CFD]) -> int:
        if not subs:
            return 0
        generator = self.generator()
        chunks = generator.applicable_sub_chunks(list(subs))
        if len(chunks) == 1:
            rows = self._execute(generator.applicable_count_query(chunks[0]))
            return int(rows[0]["freq"]) if rows else 0
        # The OR de-duplicates only within one statement; across chunks the
        # union must happen client-side on the tids.
        tids: set = set()
        for chunk in chunks:
            for row in self._execute(generator.applicable_tids_query(chunk)):
                tids.add(row["tid"])
        return len(tids)

    def page(
        self,
        after_tid: int = -1,
        page_size: int = 50,
        cfd: Optional[CFD] = None,
        lhs_values: Optional[GroupKey] = None,
        rhs_value: Any = NO_RHS_FILTER,
    ) -> List[Tuple[int, Dict[str, Any]]]:
        generator = self.generator()
        params: List[Any] = []
        if cfd is not None and lhs_values is not None:
            if rhs_value is NO_RHS_FILTER:
                rhs_attribute, rhs_filter = None, None
            elif rhs_value is None:
                rhs_attribute, rhs_filter = cfd.rhs[0], "null"
            else:
                rhs_attribute, rhs_filter = cfd.rhs[0], "eq"
            query = generator.page_fetch_query(
                cfd,
                rhs_attribute=rhs_attribute,
                rhs_filter=rhs_filter,
                page_size=page_size,
            )
            params.extend(generator.flatten_group_keys([tuple(lhs_values)]))
            if rhs_filter == "eq":
                params.append(rhs_value)
        else:
            query = generator.page_fetch_query(page_size=page_size)
        params.append(after_tid)
        bound = SqlQuery(
            query.sql, tuple(params), rhs_attribute=query.rhs_attribute,
            kind=query.kind,
        )
        return [
            (row["tid"], self._decode_row(row)) for row in self._execute(bound)
        ]
