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


class ForbiddenReadBackend(StorageBackend):
    """Delegating backend wrapper that forbids row-shipping reads.

    ``schema``/``row_count`` stay allowed — the paper's pushdown needs the
    catalog, not the rows — as do ``execute`` (the queries run *inside*
    the backend) and the write/catalog ops the detector uses to
    materialise tableaux and indexes.
    """

    def __init__(self, inner: StorageBackend):
        self.inner = inner
        self.name = inner.name
        self.dialect = inner.dialect

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

    def insert_row(self, name, row, tid=None):
        return self.inner.insert_row(name, row, tid=tid)

    def delete_row(self, name, tid):
        return self.inner.delete_row(name, tid)

    def update_row(self, name, tid, changes):
        return self.inner.update_row(name, tid, changes)

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
