"""The SQL pushdown engine: Query wiring (``engine="sqlite"``, its one
spelling), compiled-SQL evaluation and guarded-leaf rejection."""

import pytest

from repro.columnar import ColumnarWarehouse, SqliteEngine
from repro.columnar.sqlite import compile_columnar_sql
from repro.core import EngineOptions, Query
from repro.core.errors import EvaluationError
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.parser import parse
from repro.extensions import Compare, where


class TestQueryWiring:
    def test_backend_sqlite_builds_the_pushdown_engine(self, figure3_log):
        query = Query("SeeDoctor -> PayTreatment", EngineOptions(engine="sqlite"))
        assert isinstance(query.engine, SqliteEngine)
        reference = Query("SeeDoctor -> PayTreatment").run(figure3_log)
        assert query.run(figure3_log).to_rows() == reference.to_rows()

    def test_engine_name_sqlite_is_registered(self, figure3_log):
        query = Query("GetRefer", EngineOptions(engine="sqlite"))
        assert isinstance(query.engine, SqliteEngine)
        assert query.count(figure3_log) == 3


class TestEvaluation:
    @pytest.mark.parametrize(
        "text",
        [
            "GetRefer",
            "!GetRefer",
            "SeeDoctor ; PayTreatment",
            "SeeDoctor -> PayTreatment",
            "GetRefer ->[4] CheckIn",
            "GetRefer & CheckIn",
            "(SeeDoctor | Ghost) -> PayTreatment",
            "!Ghost ; CheckIn",
        ],
    )
    def test_matches_indexed_on_every_operator(self, figure3_log, text):
        pattern = parse(text)
        reference = VectorizedEngine().evaluate(figure3_log, pattern)
        pushed = SqliteEngine().evaluate(figure3_log.columnar(), pattern)
        assert pushed.to_rows() == reference.to_rows()

    def test_accepts_object_logs_directly(self, figure3_log):
        engine = SqliteEngine()
        assert engine.evaluate(figure3_log, parse("GetRefer")).to_rows() == (
            VectorizedEngine().evaluate(figure3_log, parse("GetRefer")).to_rows()
        )

    def test_exists_short_circuits(self, figure3_log):
        engine = SqliteEngine()
        columnar = figure3_log.columnar()
        assert engine.exists(columnar, parse("SeeDoctor -> PayTreatment"))
        assert not engine.exists(columnar, parse("Ghost"))

    def test_absent_positive_activity_is_empty(self, figure3_log):
        assert len(SqliteEngine().evaluate(figure3_log, parse("Ghost"))) == 0

    def test_stats_are_published(self, figure3_log):
        engine = SqliteEngine()
        result = engine.evaluate(figure3_log, parse("GetRefer"))
        assert engine.last_stats is not None
        assert engine.last_stats.incidents_produced == len(result)


class TestGuardedLeaves:
    def test_guarded_leaf_is_rejected_with_a_clear_error(self, figure3_log):
        guarded = where("GetRefer", Compare("out", "balance", ">=", 1000))
        with pytest.raises(EvaluationError, match="attribute"):
            SqliteEngine().evaluate(figure3_log, guarded)


class TestWarehouse:
    def test_warehouse_is_cached_per_columnar_view(self, figure3_log):
        engine = SqliteEngine()
        columnar = figure3_log.columnar()
        engine.evaluate(columnar, parse("GetRefer"))
        warehouse = engine._cache[1]
        engine.evaluate(columnar, parse("CheckIn"))
        assert engine._cache[1] is warehouse  # same view: reuse
        other = figure3_log.columnar().to_log().columnar()
        engine.evaluate(other, parse("GetRefer"))
        assert engine._cache[1] is not warehouse  # new view: reload

    def test_warehouse_row_count_matches(self, figure3_log):
        warehouse = ColumnarWarehouse(figure3_log.columnar())
        (n,) = warehouse.connection.execute(
            "SELECT COUNT(*) FROM records"
        ).fetchone()
        assert n == len(figure3_log)

    def test_compiled_sql_mentions_the_schema(self, figure3_log):
        branches = compile_columnar_sql(
            parse("SeeDoctor -> PayTreatment"), figure3_log.columnar()
        )
        assert len(branches) == 1
        sql = branches[0]
        assert "FROM records" in sql and "wid_id" in sql and "act_id" in sql
