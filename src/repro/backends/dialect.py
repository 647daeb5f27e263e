"""SQL dialect descriptions for the storage backends.

The detection SQL generated by :mod:`repro.detection.sqlgen` renders a few
backend-specific pieces through a :class:`SqlDialect`:

* how to render a data column as the string encoding of the pattern
  constants it is compared with (:meth:`SqlDialect.string_expr`);
* the per-statement budgets the query compiler chunks by:
  :attr:`~SqlDialect.max_parameters` bounds how many values one statement
  binds, and :attr:`~SqlDialect.max_or_terms` bounds the OR chain of the
  applicability counts.  The detector's restricted ``detect_for_tuples``
  plans and the tuple-source aggregates all chunk by this budget, so one
  statement never outgrows the engine's variable cap however wide the
  CFD's LHS is.

The string renderings agree with the constants' encoding (``str(value)``
in Python): integers cast identically, floats go through a registered Python
``str`` function on SQLite (``CAST`` disagrees on exponent-form floats),
and booleans, stored as 0/1, are special-cased.
"""

from __future__ import annotations

from ..engine.types import DataType

#: the portable floor of ``SQLITE_MAX_VARIABLE_NUMBER`` — builds compiled
#: before SQLite 3.32 default to 999 bound parameters per statement
SQLITE_PARAMETER_FLOOR = 999


class SqlDialect:
    """Base dialect: behaviour shared by all SQL-speaking backends."""

    #: dialect name, used in reprs and error messages
    name: str = "ansi"
    #: bound-parameter budget per statement; the query compiler sizes its
    #: chunks so one statement never binds more than this many values
    max_parameters: int = SQLITE_PARAMETER_FLOOR
    #: cap on OR-chain disjuncts in one statement.  SQLite caps the
    #: expression-tree depth at 1000, so the applicability counts OR-ing
    #: one conjunction per sub-CFD are chunked at least this finely.
    max_or_terms: int = 200

    def string_expr(self, column: str, dtype: DataType) -> str:
        """Render ``column`` as the string encoding of the pattern constants."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class SqliteDialect(SqlDialect):
    """Dialect of the stdlib :mod:`sqlite3` backend.

    SQLite has no ``CONCAT`` before 3.44, so non-string columns are
    rendered with ``CAST(... AS TEXT)``.  Booleans are stored as 0/1 and
    would cast to ``'1'``/``'0'``, while the constants encode them as the
    Python strings ``'True'``/``'False'``; a ``CASE`` expression keeps the
    string encodings identical.

    The :class:`~repro.backends.sqlite.SqliteBackend` builds an instance
    whose ``max_parameters`` reflects the connection's actual
    ``SQLITE_LIMIT_VARIABLE_NUMBER`` (the default is the portable 999
    floor).
    """

    name = "sqlite"

    def __init__(self, max_parameters: int = SQLITE_PARAMETER_FLOOR):
        self.max_parameters = max_parameters

    def string_expr(self, column: str, dtype: DataType) -> str:
        if dtype is DataType.STRING:
            return column
        if dtype is DataType.BOOLEAN:
            return (
                f"(CASE WHEN {column} IS NULL THEN NULL "
                f"WHEN {column} THEN 'True' ELSE 'False' END)"
            )
        if dtype is DataType.FLOAT:
            # CAST(... AS TEXT) disagrees with Python str() on exponent-form
            # floats ('1.0e+16' vs '1e+16'); pystr is a Python function the
            # SqliteBackend registers on its connection for exact parity.
            return f"pystr({column})"
        return f"CAST({column} AS TEXT)"


#: shared default dialect instance (the conservative 999-parameter floor;
#: backends build per-connection instances with the real limit)
SQLITE_DIALECT = SqliteDialect()
