"""ETL/SQL warehouse baseline (the paper's Figure 1 pipeline).

The traditional route the paper argues against: *extract* the log into a
relational schema, then answer questions with SQL.  We implement it
honestly so the benchmark comparison is fair:

* :class:`SqlWarehouse` — loads a log into an in-memory SQLite database
  (``records(lsn, wid, is_lsn, activity)`` with covering indices), the
  "data warehouse" after ETL;
* :func:`compile_to_sql` — compiles an incident pattern into one
  self-join ``SELECT`` per choice-free branch (``⊗`` = UNION of branch
  queries, mirroring how an analyst would write them) through the
  operator→SQL mapping of :func:`repro.columnar.sqlite.compile_branches`,
  supplying the text schema's activity-string predicate;
* :class:`SqlBaseline` — an :class:`~repro.core.eval.base.Engine` facade
  so the harness can swap it in anywhere.

Attribute maps are not loaded — the pure temporal fragment needs only the
activity/position columns, and this matches the paper's observation that
an ETL pipeline extracts a *projection* decided up front.

This module remains the *benchmark baseline* (denormalised text schema,
honest ETL cost).  The production SQL route is the pushdown backend in
:mod:`repro.columnar.sqlite` (``engine="sqlite"``): the same compiler
over interned integer columns mirroring the columnar layout, with the
warehouse cached per columnar view.
"""

from __future__ import annotations

import sqlite3

from repro.columnar.sqlite import compile_branches
from repro.core.eval.base import Engine, EvaluationStats
from repro.core.incident import Incident, IncidentSet
from repro.core.model import Log
from repro.core.pattern import Atomic, Pattern

__all__ = ["SqlWarehouse", "SqlBaseline", "compile_to_sql"]


class SqlWarehouse:
    """A log loaded into SQLite — the post-ETL warehouse."""

    def __init__(self, log: Log):
        self.log = log
        self.connection = sqlite3.connect(":memory:")
        self.connection.execute(
            """
            CREATE TABLE records (
                lsn      INTEGER PRIMARY KEY,
                wid      INTEGER NOT NULL,
                is_lsn   INTEGER NOT NULL,
                activity TEXT    NOT NULL
            )
            """
        )
        self.connection.execute(
            "CREATE INDEX idx_wid_activity ON records (wid, activity, is_lsn)"
        )
        self.connection.execute(
            "CREATE UNIQUE INDEX idx_wid_pos ON records (wid, is_lsn)"
        )
        self.connection.executemany(
            "INSERT INTO records VALUES (?, ?, ?, ?)",
            ((r.lsn, r.wid, r.is_lsn, r.activity) for r in log),
        )
        self.connection.commit()

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SqlWarehouse":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- query execution -----------------------------------------------

    def incidents(self, pattern: Pattern) -> IncidentSet:
        """Evaluate ``pattern`` through SQL and return its incident set."""
        found: set[frozenset[int]] = set()
        for sql in compile_to_sql(pattern):
            for row in self.connection.execute(sql):
                found.add(frozenset(row))
        return IncidentSet(
            Incident(self.log.record(lsn) for lsn in lsns) for lsns in found
        )


def compile_to_sql(pattern: Pattern) -> list[str]:
    """Compile ``pattern`` into one SELECT per choice-free branch over the
    text schema: :func:`~repro.columnar.sqlite.compile_branches` with the
    activity-string predicate an analyst would write.

    Each row of a branch query is one incident: the ``lsn`` of the record
    matched by each atomic leaf.
    """

    def leaf_predicate(alias: str, leaf: Atomic) -> str:
        quoted = leaf.name.replace("'", "''")
        return f"{alias}.activity {'!=' if leaf.negated else '='} '{quoted}'"

    return compile_branches(pattern, leaf_predicate, "wid")


class SqlBaseline(Engine):
    """Engine facade over :class:`SqlWarehouse`.

    Each call pays the ETL cost (loading the log) unless the same log is
    passed repeatedly — the warehouse is cached per log identity,
    mirroring a pre-loaded warehouse in steady state.
    """

    name = "sql"

    def __init__(self, *, max_incidents: int | None = None, **kwargs):
        super().__init__(max_incidents=max_incidents, **kwargs)
        self._cache: tuple[int, SqlWarehouse] | None = None

    def _warehouse(self, log: Log) -> SqlWarehouse:
        if self._cache is not None and self._cache[0] == id(log):
            return self._cache[1]
        if self._cache is not None:
            self._cache[1].close()
        warehouse = SqlWarehouse(log)
        self._cache = (id(log), warehouse)
        return warehouse

    def evaluate(self, log: Log, pattern: Pattern) -> IncidentSet:
        self.last_stats = EvaluationStats()
        result = self._warehouse(log).incidents(pattern)
        self._check_budget(len(result))
        return result
