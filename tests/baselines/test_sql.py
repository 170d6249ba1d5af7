"""Unit tests for the ETL/SQL warehouse baseline."""

import random

import pytest

from repro.baselines.sql import SqlBaseline, compile_to_sql
from repro.core.algebra import random_logs
from repro.core.errors import EvaluationError
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.incident import reference_incidents
from repro.core.model import Log
from repro.core.parser import parse
from repro.core.pattern import random_pattern

#: one instance holding every activity the compiler tests name
ABC = Log.from_traces([["A", "B", "C", "CheckIn", "O'Hara"]]).columnar()


def act(name):
    return ABC.act_id_of(name)


class TestCompileToSql:
    def test_atomic_compiles_to_single_select(self):
        queries = compile_to_sql(parse("CheckIn"), ABC)
        assert len(queries) == 1
        assert f"r0.act_id = {act('CheckIn')}" in queries[0]

    def test_negated_atom(self):
        (sql,) = compile_to_sql(parse("!CheckIn"), ABC)
        assert f"r0.act_id != {act('CheckIn')}" in sql

    def test_sequential_uses_position_comparison(self):
        (sql,) = compile_to_sql(parse("A -> B"), ABC)
        assert "r0.is_lsn < r1.is_lsn" in sql
        assert "r1.wid_id = r0.wid_id" in sql

    def test_consecutive_uses_adjacency(self):
        (sql,) = compile_to_sql(parse("A ; B"), ABC)
        assert "r0.is_lsn + 1 = r1.is_lsn" in sql

    def test_nested_operators_use_scalar_min_max(self):
        (sql,) = compile_to_sql(parse("(A ; B) -> C"), ABC)
        assert "MAX(r0.is_lsn, r1.is_lsn) < r2.is_lsn" in sql

    def test_parallel_uses_disjointness(self):
        (sql,) = compile_to_sql(parse("A & B"), ABC)
        assert "r0.is_lsn != r1.is_lsn" in sql

    def test_choice_expands_to_branches(self):
        queries = compile_to_sql(parse("(A | B) -> C"), ABC)
        assert len(queries) == 2

    def test_quotes_are_escaped(self):
        # names never reach SQL text: a quote is interned like any name
        (sql,) = compile_to_sql(parse("\"O'Hara\""), ABC)
        assert "'" not in sql
        assert "r0.act_id = %d" % act("O'Hara") in sql

    def test_windowed_sequential_adds_bound(self):
        (sql,) = compile_to_sql(parse("A ->[4] B"), ABC)
        assert "r1.is_lsn <= r0.is_lsn + 4" in sql

    def test_guarded_atoms_are_rejected(self):
        with pytest.raises(EvaluationError) as excinfo:
            compile_to_sql(parse("A[x > 1]"), ABC)
        assert "projection" in str(excinfo.value)


class TestWarehouse:
    def test_incidents_match_oracle_on_paper_examples(self, figure3_log):
        result = SqlBaseline().evaluate(figure3_log, parse("UpdateRefer -> GetReimburse"))
        assert result.lsn_sets() == {frozenset({14, 20})}

    def test_differential_against_oracle(self):
        rng = random.Random(31)
        logs = random_logs("ABC", cases=8, seed=23)
        baseline = SqlBaseline()
        for __ in range(40):
            log = rng.choice(logs)
            pattern = random_pattern(rng, "ABC", max_depth=4)
            assert baseline.evaluate(log, pattern) == reference_incidents(
                log, pattern
            ), str(pattern)

    def test_engine_facade_caches_warehouse_per_log(self, figure3_log):
        baseline = SqlBaseline()
        baseline.evaluate(figure3_log, parse("A"))
        warehouse_first = baseline.warehouse(figure3_log)
        baseline.evaluate(figure3_log, parse("B"))
        assert baseline.warehouse(figure3_log) is warehouse_first

    def test_engine_facade_exists(self, figure3_log):
        baseline = SqlBaseline()
        assert baseline.exists(figure3_log, parse("SeeDoctor"))
        assert not baseline.exists(figure3_log, parse("Ghost"))

    def test_a_lone_surrogate_name_is_never_handed_to_sqlite(self):
        # JSON can spell "\ud800"; SQLite cannot store it as text, so the
        # warehouse holds interned integers and decodes through the log
        log = Log.from_traces([["A\ud800", "B"]])
        pattern = parse("B")
        expected = VectorizedEngine().evaluate(log, pattern)
        assert SqlBaseline().evaluate(log, pattern).to_rows() == expected.to_rows()
