"""ETL/SQL warehouse baseline (the paper's Figure 1 pipeline).

The traditional route the paper argues against: *extract* the log into a
relational schema, then answer questions with SQL.  We implement it
honestly so the benchmark comparison is fair:

* :class:`SqlWarehouse` — a log's columnar view bulk-loaded into an
  in-memory SQLite database, the "data warehouse" after ETL;
* :func:`compile_to_sql` — compiles an incident pattern into one
  self-join ``SELECT`` per choice-free branch (``⊗`` = UNION of branch
  queries, mirroring how an analyst would write them);
* :class:`SqlBaseline` — an :class:`~repro.core.eval.base.Engine` facade
  so the harness can swap it in anywhere, ``Query`` included
  (``EngineOptions(engine=SqlBaseline())``).

The schema mirrors the columnar layout of
:class:`~repro.columnar.ColumnarLog`: ``records(row, wid_id, is_lsn,
act_id)`` holds one row per columnar row, ``act_id`` straight from its
column, ``wid_id`` (the window number) and ``is_lsn`` (``row - lo + 1``)
derived from the instance offsets at load.  No name is stored: leaf names
resolve to ``act_id`` at compile time (an unknown activity never reaches
SQL) and results decode through the columnar rows, so a name SQLite
cannot hold as text (a lone surrogate, which JSON carries) is never
handed to it, and incidents are byte-for-byte the engines' own.

Attribute maps are not loaded — the pure temporal fragment needs only the
activity/position columns, and this matches the paper's observation that
an ETL pipeline extracts a *projection* decided up front.  Attribute-
guarded leaves raise :class:`~repro.core.errors.EvaluationError`.

A statement can run for as long as its self-join's output, C(n, k+1)
rows on one instance (Theorem 1), so a governor attached to the engine is
consulted from inside it: SQLite's progress handler calls the run's
checkpoint every ``_PROGRESS_STEPS`` virtual-machine instructions and
aborts the statement when it raises, and the engine re-raises that typed
governor error.  Rows are fetched
:data:`~repro.core.governor.CHECK_STRIDE` at a time and the incidents
found so far are held to ``max_incidents`` between fetches.
"""

from __future__ import annotations

import sqlite3

from repro.columnar.column_log import ColumnarLog, as_columnar
from repro.core.algebra import choice_normal_form
from repro.core.errors import EvaluationError, QueryGovernorError
from repro.core.eval.base import Engine
from repro.core.governor import CHECK_STRIDE
from repro.core.incident import Incident, IncidentSet
from repro.core.model import Log
from repro.core.pattern import (
    Atomic,
    BinaryPattern,
    Consecutive,
    Parallel,
    Pattern,
    Sequential,
)

__all__ = ["SqlWarehouse", "SqlBaseline", "compile_to_sql"]

#: SQLite virtual-machine instructions between two progress-handler
#: calls: about a millisecond of a self-join on a 2-vCPU Xeon, the
#: kernel's checkpoint cadence.
_PROGRESS_STEPS = 4_000


class SqlWarehouse:
    """A log's columnar view loaded into SQLite — the post-ETL warehouse."""

    def __init__(self, log: "Log | ColumnarLog"):
        self.columnar = columnar = as_columnar(log)
        self.connection = sqlite3.connect(":memory:")
        self.connection.executescript(
            """
            CREATE TABLE records (
                row    INTEGER PRIMARY KEY,
                wid_id INTEGER NOT NULL,
                is_lsn INTEGER NOT NULL,
                act_id INTEGER NOT NULL
            );
            CREATE INDEX idx_wid_act ON records (wid_id, act_id, is_lsn);
            CREATE UNIQUE INDEX idx_wid_pos ON records (wid_id, is_lsn);
            """
        )
        act_id = columnar.act_id_col
        self.connection.executemany(
            "INSERT INTO records VALUES (?, ?, ?, ?)",
            (
                (row, wid_id, row - lo + 1, act_id[row])
                for wid_id, (_, lo, hi) in enumerate(columnar.wid_windows())
                for row in range(lo, hi)
            ),
        )
        self.connection.commit()

    def close(self) -> None:
        self.connection.close()


def _scalar_min(columns: list[str]) -> str:
    return columns[0] if len(columns) == 1 else f"MIN({', '.join(columns)})"


def _scalar_max(columns: list[str]) -> str:
    return columns[0] if len(columns) == 1 else f"MAX({', '.join(columns)})"


def _compile_branch(pattern: Pattern, columnar: ColumnarLog) -> str:
    """One choice-free branch → one self-join SELECT."""
    aliases: list[str] = []
    predicates: list[str] = []

    def leaf_positions(node: Pattern) -> list[str]:
        """Compile ``node``; returns the is-lsn column list of its leaves."""
        if isinstance(node, Atomic):
            if type(node) is not Atomic:
                # attribute-guarded leaves need the attribute maps, which
                # the projection loaded into SQL deliberately omits (the
                # paper's core criticism of the ETL route)
                raise EvaluationError(
                    "the SQL projection has no attribute maps; cannot "
                    f"compile leaf {node!r} — use an in-process engine"
                )
            alias = f"r{len(aliases)}"
            aliases.append(alias)
            act_id = columnar.act_id_of(node.name)
            if act_id is not None:
                predicates.append(
                    f"{alias}.act_id {'!=' if node.negated else '='} {act_id}"
                )
            elif not node.negated:
                # a positive leaf on an activity absent from the log makes
                # the branch unsatisfiable; a negated one matches every record
                predicates.append("0 = 1")
            if aliases[0] != alias:
                predicates.append(f"{alias}.wid_id = {aliases[0]}.wid_id")
            return [f"{alias}.is_lsn"]
        assert isinstance(node, BinaryPattern)
        left_columns = leaf_positions(node.left)
        right_columns = leaf_positions(node.right)
        if isinstance(node, Consecutive):
            predicates.append(
                f"{_scalar_max(left_columns)} + 1 = {_scalar_min(right_columns)}"
            )
        elif isinstance(node, Sequential):
            predicates.append(
                f"{_scalar_max(left_columns)} < {_scalar_min(right_columns)}"
            )
            window = getattr(node, "bound", None)
            if window is not None:
                predicates.append(
                    f"{_scalar_min(right_columns)} <= "
                    f"{_scalar_max(left_columns)} + {int(window)}"
                )
        elif isinstance(node, Parallel):
            for left_column in left_columns:
                for right_column in right_columns:
                    predicates.append(f"{left_column} != {right_column}")
        else:  # pragma: no cover - choices were expanded away
            raise EvaluationError("unexpected choice in a compiled branch")
        return left_columns + right_columns

    leaf_positions(pattern)
    select = "SELECT " + ", ".join(f"{alias}.row" for alias in aliases)
    sql = f"{select} FROM " + ", ".join(f"records {alias}" for alias in aliases)
    if predicates:
        sql += " WHERE " + " AND ".join(predicates)
    return sql


def compile_to_sql(pattern: Pattern, columnar: ColumnarLog) -> list[str]:
    """Compile ``pattern`` into one SELECT per choice-free branch over the
    warehouse schema, with activity names resolved to ``columnar``'s
    interned ``act_id`` integers up front.

    Each row of a branch query is one incident: the ``row`` of the record
    matched by each atomic leaf.  Rows may repeat record sets across
    branches — the caller deduplicates, as ``incL`` is a set.
    """
    return [_compile_branch(branch, columnar) for branch in choice_normal_form(pattern)]


class SqlBaseline(Engine):
    """Engine facade over :class:`SqlWarehouse`.

    The warehouse is cached per columnar view, so repeated queries over
    one log pay the ETL load once, mirroring a pre-loaded warehouse in
    steady state; a fresh instance pays it on its first query.  A log has
    one columnar view, built with it, making the cache key stable.
    """

    name = "sql"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._cache: SqlWarehouse | None = None

    def warehouse(self, log: "Log | ColumnarLog") -> SqlWarehouse:
        """The warehouse holding ``log``, loaded on first use."""
        columnar = as_columnar(log)
        cache = self._cache
        if cache is not None and cache.columnar is columnar:
            return cache
        if cache is not None:
            cache.close()
        self._cache = SqlWarehouse(columnar)
        return self._cache

    def evaluate(self, log: "Log | ColumnarLog", pattern: Pattern) -> IncidentSet:
        stats = self._new_stats()
        with self.tracer.span(
            "evaluate", key=(), engine=self.name, pattern=str(pattern)
        ):
            warehouse = self.warehouse(log)
            connection = warehouse.connection
            killed: list[QueryGovernorError] = []

            def progress() -> int:
                try:
                    self._checkpoint(stats)
                except QueryGovernorError as exc:
                    killed.append(exc)
                    return 1  # abort the statement
                return 0

            if self.governor is not None:
                connection.set_progress_handler(progress, _PROGRESS_STEPS)
            found: set[frozenset[int]] = set()
            try:
                for branch, sql in enumerate(compile_to_sql(pattern, warehouse.columnar)):
                    self._checkpoint(stats)
                    with self.tracer.span("branch", key=branch, sql=sql):
                        cursor = connection.execute(sql)
                        while rows := cursor.fetchmany(CHECK_STRIDE):
                            found.update(map(frozenset, rows))
                            self._check_budget(len(found))
            except sqlite3.OperationalError:
                if killed:
                    raise killed[0] from None
                raise
            finally:
                connection.set_progress_handler(None, 0)
            record = warehouse.columnar.rows.__getitem__
            result = IncidentSet(Incident(map(record, rows)) for rows in found)
            self._check_budget(len(result))
            stats.note_live(len(result))
            stats.incidents_produced += len(result)
        self._finish(stats)
        return result
