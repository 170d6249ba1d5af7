"""SQL pushdown backend over the columnar schema (``engine="sqlite"``).

:mod:`repro.baselines.sql` implements the paper's Figure 1 strawman — an
ETL warehouse with one denormalised text table.  This module promotes
the idea into a first-class backend: patterns compile to self-join SQL
over a schema that *mirrors the columnar layout* of
:class:`~repro.columnar.ColumnarLog`, so the database joins interned
integers instead of comparing activity strings:

``records(row, wid_id, is_lsn, act_id)`` holds one row per columnar
row, bulk-loaded from the view: ``act_id`` straight from its column,
``wid_id`` (the window number) and ``is_lsn`` (``row - lo + 1``) derived
from the instance offsets at load.  No name is stored: leaf names
resolve to ``act_id`` at compile time (an unknown activity never reaches
SQL) and results decode through the columnar rows, so a name SQLite
cannot hold as text (a lone surrogate, which JSON carries) is never
handed to it.

The one operator-to-predicate mapping lives here (:func:`compile_branches`:
one alias per leaf; scalar ``MIN``/``MAX`` over subtree positions for
``first``/``last``; ``⊗`` expanded branch-wise through
:func:`~repro.core.algebra.choice_normal_form`), parameterised by the
schema's leaf predicate, instance column and record-identity column:
this backend supplies integer ``act_id`` comparisons and ``row``, the
baseline its text ones and ``lsn``.
Attribute-guarded leaves cannot be compiled —
the pushed-down projection has no attribute maps — and raise
:class:`~repro.core.errors.EvaluationError`; the engine is never a
default, it must be requested (``engine="sqlite"``).

Incident identity is reconstructed from the selected per-leaf row
numbers, so results are byte-for-byte identical to the object engines.
"""

from __future__ import annotations

import sqlite3
from collections.abc import Callable

from repro.columnar.column_log import ColumnarLog, as_columnar
from repro.core.algebra import choice_normal_form
from repro.core.errors import EvaluationError
from repro.core.eval.base import Engine
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

__all__ = ["ColumnarWarehouse", "SqliteEngine", "compile_branches", "compile_columnar_sql"]


class ColumnarWarehouse:
    """A columnar log bulk-loaded into SQLite (see module docs)."""

    def __init__(self, columnar: ColumnarLog):
        self.columnar = columnar
        self.connection = sqlite3.connect(":memory:")
        script = """
            CREATE TABLE records (
                row    INTEGER PRIMARY KEY,
                wid_id INTEGER NOT NULL,
                is_lsn INTEGER NOT NULL,
                act_id INTEGER NOT NULL
            );
            CREATE INDEX idx_wid_act ON records (wid_id, act_id, is_lsn);
            CREATE UNIQUE INDEX idx_wid_pos ON records (wid_id, is_lsn);
        """
        self.connection.executescript(script)
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

    def branch_queries(self, pattern: Pattern) -> list[str]:
        """One integer-predicate SELECT per choice-free branch."""
        return compile_columnar_sql(pattern, self.columnar)


def _scalar_min(columns: list[str]) -> str:
    return columns[0] if len(columns) == 1 else f"MIN({', '.join(columns)})"


def _scalar_max(columns: list[str]) -> str:
    return columns[0] if len(columns) == 1 else f"MAX({', '.join(columns)})"


def _compile_branch(
    pattern: Pattern,
    leaf_predicate: Callable[[str, Atomic], str | None],
    wid_column: str,
    key_column: str,
) -> str:
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
            predicate = leaf_predicate(alias, node)
            if predicate is not None:
                predicates.append(predicate)
            if aliases[0] != alias:
                predicates.append(f"{alias}.{wid_column} = {aliases[0]}.{wid_column}")
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
    select = "SELECT " + ", ".join(f"{alias}.{key_column}" for alias in aliases)
    sql = f"{select} FROM " + ", ".join(f"records {alias}" for alias in aliases)
    if predicates:
        sql += " WHERE " + " AND ".join(predicates)
    return sql


def compile_branches(
    pattern: Pattern,
    leaf_predicate: Callable[[str, Atomic], str | None],
    wid_column: str,
    key_column: str,
) -> list[str]:
    """Compile ``pattern`` into one SELECT per choice-free branch — the one
    operator→SQL mapping, parameterised by schema.

    ``leaf_predicate(alias, leaf)`` is the schema's activity test for a
    plain atomic leaf (None when the leaf matches every record) and
    ``wid_column`` the instance column the leaf aliases are joined on.
    Each result row is one incident: the ``key_column`` (a record
    identity) of the record matched by each leaf.
    Rows may repeat record sets across branches — the caller
    deduplicates, as ``incL`` is a set.
    """
    return [
        _compile_branch(branch, leaf_predicate, wid_column, key_column)
        for branch in choice_normal_form(pattern)
    ]


def compile_columnar_sql(pattern: Pattern, columnar: ColumnarLog) -> list[str]:
    """:func:`compile_branches` over the integer schema, with activity
    names resolved to interned ``act_id`` integers up front."""

    def leaf_predicate(alias: str, leaf: Atomic) -> str | None:
        act_id = columnar.act_id_of(leaf.name)
        if act_id is None:
            # a positive leaf on an activity absent from the log makes the
            # branch unsatisfiable; a negated one matches every record
            return None if leaf.negated else "0 = 1"
        return f"{alias}.act_id {'!=' if leaf.negated else '='} {act_id}"

    return compile_branches(pattern, leaf_predicate, "wid_id", "row")


class SqliteEngine(Engine):
    """Engine facade over :class:`ColumnarWarehouse` — the engine behind
    ``engine="sqlite"``.

    The warehouse is cached per columnar view, so repeated queries over
    one log pay the bulk load once; a log has one columnar view, built
    with it, making the cache key stable across queries.
    """

    name = "sqlite"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._cache: tuple[ColumnarLog, ColumnarWarehouse] | None = None

    def _warehouse(self, columnar: ColumnarLog) -> ColumnarWarehouse:
        cache = self._cache
        if cache is not None and cache[0] is columnar:
            return cache[1]
        if cache is not None:
            cache[1].connection.close()
        warehouse = ColumnarWarehouse(columnar)
        self._cache = (columnar, warehouse)
        return warehouse

    def evaluate(self, log: "Log | ColumnarLog", pattern: Pattern) -> IncidentSet:
        columnar = as_columnar(log)
        stats = self._new_stats()
        with self.tracer.span(
            "evaluate", key=(), engine=self.name, pattern=str(pattern)
        ):
            warehouse = self._warehouse(columnar)
            found: set[frozenset[int]] = set()
            for branch, sql in enumerate(warehouse.branch_queries(pattern)):
                self._checkpoint(stats)
                with self.tracer.span("branch", key=branch, sql=sql):
                    for row in warehouse.connection.execute(sql):
                        found.add(frozenset(row))
            record = columnar.rows.__getitem__
            result = IncidentSet(Incident(map(record, rows)) for rows in found)
            self._check_budget(len(result))
            stats.note_live(len(result))
            stats.incidents_produced += len(result)
        self._finish(stats)
        return result
