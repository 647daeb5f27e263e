"""Shared test doubles pinning the backend-resident detection *and repair* contract.

Two stand-ins enforce "zero working-store reads" from opposite sides:

* :class:`ForbiddenRelation` replaces an in-memory
  :class:`~repro.engine.relation.Relation` — any attribute access fails the
  test.  Swapped into ``Database._relations`` to pin that the
  backend-resident ``repair()``, ``audit()`` and explorer run without ever
  touching the working relation;
* :class:`ForbiddenReadBackend` wraps a real
  :class:`~repro.backends.base.StorageBackend` and fails the test on any
  *row-shipping* read (``to_relation`` / ``get_row`` / ``iter_rows``) while
  delegating catalog ops, query execution and writes — the batch detector
  must run ``detect`` / ``detect_for_tuples`` through it untouched, and
  the backend-resident repair path
  (``clean()`` / ``apply_repair``) must do the same.

:class:`CountingRelation` is the softer pin for incremental repair, which
may read a relation's keyed rows but must not scan or copy it.
"""

from __future__ import annotations

from repro.backends.base import StorageBackend


class ForbiddenRelation:
    """A stand-in that fails the test on any working-store access.

    The dunder hooks Python resolves on the *type* (``len``, ``in``,
    iteration) are spelled out explicitly — ``__getattr__`` alone would
    let ``tid in relation`` surface as a ``TypeError`` instead of the
    diagnostic assertion.
    """

    def __init__(self, name):
        self._name = name

    def _forbidden(self, access):
        raise AssertionError(
            f"working store was read: {access} on forbidden relation {self._name!r}"
        )

    def __getattr__(self, attribute):
        self._forbidden(f"{self._name}.{attribute}")

    def __len__(self):
        self._forbidden(f"len({self._name})")

    def __contains__(self, tid):
        self._forbidden(f"{tid} in {self._name}")

    def __iter__(self):
        self._forbidden(f"iter({self._name})")


class CountingRelation:
    """Delegates to a real :class:`Relation`, counting whole-relation reads.

    ``calls["rows"]`` counts the full scans,
    :meth:`~repro.engine.relation.Relation.rows` and
    :meth:`~repro.engine.relation.Relation.stored_rows`, and
    ``calls["copy"]`` counts :meth:`~repro.engine.relation.Relation.copy`;
    every other access, keyed lookups included, passes straight through.
    Pins that incremental repair reads an update batch's groups, not the
    relation.
    """

    def __init__(self, relation):
        self._relation = relation
        self.calls = {"rows": 0, "copy": 0}

    def rows(self):
        self.calls["rows"] += 1
        return self._relation.rows()

    def stored_rows(self):
        self.calls["rows"] += 1
        return self._relation.stored_rows()

    def copy(self):
        self.calls["copy"] += 1
        return self._relation.copy()

    def __getattr__(self, attribute):
        return getattr(self._relation, attribute)

    def __len__(self):
        return len(self._relation)

    def __contains__(self, tid):
        return tid in self._relation


class ForbiddenReadBackend(StorageBackend):
    """Delegating backend wrapper that forbids row-shipping reads.

    ``schema``/``row_count`` stay allowed — the paper's pushdown needs the
    catalog, not the rows — as do ``execute`` (the queries run *inside*
    the backend), the detector's ``ensure_index`` and the write ops:
    the bulk loads and ``apply_delta_batch``, the one way a stored row
    changes after them.
    """

    def __init__(self, inner: StorageBackend):
        self.inner = inner
        self.name = inner.name
        self.max_parameters = inner.max_parameters

    def _forbidden(self, what: str):
        raise AssertionError(f"detection read the working store: {what}")

    # -- forbidden row reads ---------------------------------------------------

    def to_relation(self, name):
        self._forbidden(f"to_relation({name!r})")

    def get_row(self, name, tid):
        self._forbidden(f"get_row({name!r}, {tid})")

    def iter_rows(self, name):
        self._forbidden(f"iter_rows({name!r})")

    # -- delegated catalog / write / query ops ---------------------------------

    def create_relation(self, schema, rows=None, replace=False):
        return self.inner.create_relation(schema, rows=rows, replace=replace)

    def add_relation(self, relation, replace=False):
        return self.inner.add_relation(relation, replace=replace)

    def drop_relation(self, name):
        return self.inner.drop_relation(name)

    def has_relation(self, name):
        return self.inner.has_relation(name)

    def relation_names(self):
        return self.inner.relation_names()

    def schema(self, name):
        return self.inner.schema(name)

    def insert_many(self, name, rows):
        return self.inner.insert_many(name, rows)

    def apply_delta_batch(self, name, batch):
        return self.inner.apply_delta_batch(name, batch)

    def row_count(self, name):
        return self.inner.row_count(name)

    def execute(self, sql, parameters=None):
        return self.inner.execute(sql, parameters)

    def ensure_index(self, name, attributes):
        return self.inner.ensure_index(name, attributes)

    def close(self):
        return self.inner.close()
