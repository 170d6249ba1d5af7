"""The SQL baseline as an engine over the integer schema: the instance
run through ``Query``, compiled-SQL evaluation over the columnar view,
guarded-leaf rejection and the per-view warehouse.  No engine *name*
reaches it: ``engine="sqlite"`` is unknown (``tests/core/test_query.py``)."""

import pytest

from repro.baselines.sql import SqlBaseline, SqlWarehouse, compile_to_sql
from repro.columnar import ColumnarLog
from repro.core import EngineOptions, Query
from repro.core.errors import EvaluationError
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.parser import parse
from repro.extensions import Compare, Guarded


class TestQueryWiring:
    def test_backend_sqlite_builds_the_pushdown_engine(self, figure3_log):
        engine = SqlBaseline()
        query = Query("SeeDoctor -> PayTreatment", EngineOptions(engine=engine))
        assert query.engine is engine
        reference = Query("SeeDoctor -> PayTreatment").run(figure3_log)
        assert query.run(figure3_log).to_rows() == reference.to_rows()
        assert Query("GetRefer", EngineOptions(engine=engine)).count(figure3_log) == 3


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
        pushed = SqlBaseline().evaluate(figure3_log.columnar(), pattern)
        assert pushed.to_rows() == reference.to_rows()

    def test_accepts_object_logs_directly(self, figure3_log):
        engine = SqlBaseline()
        assert engine.evaluate(figure3_log, parse("GetRefer")).to_rows() == (
            VectorizedEngine().evaluate(figure3_log, parse("GetRefer")).to_rows()
        )

    def test_exists_short_circuits(self, figure3_log):
        engine = SqlBaseline()
        columnar = figure3_log.columnar()
        assert engine.exists(columnar, parse("SeeDoctor -> PayTreatment"))
        assert not engine.exists(columnar, parse("Ghost"))

    def test_absent_positive_activity_is_empty(self, figure3_log):
        assert len(SqlBaseline().evaluate(figure3_log, parse("Ghost"))) == 0

    def test_stats_are_published(self, figure3_log):
        engine = SqlBaseline()
        result = engine.evaluate(figure3_log, parse("GetRefer"))
        assert engine.last_stats is not None
        assert engine.last_stats.incidents_produced == len(result)


class TestGuardedLeaves:
    def test_guarded_leaf_is_rejected_with_a_clear_error(self, figure3_log):
        guarded = Guarded("GetRefer", False, Compare("out", "balance", ">=", 1000))
        with pytest.raises(EvaluationError, match="attribute"):
            SqlBaseline().evaluate(figure3_log, guarded)


class TestWarehouse:
    def test_warehouse_is_cached_per_columnar_view(self, figure3_log):
        engine = SqlBaseline()
        columnar = figure3_log.columnar()
        engine.evaluate(columnar, parse("GetRefer"))
        warehouse = engine.warehouse(columnar)
        engine.evaluate(figure3_log, parse("CheckIn"))
        assert engine.warehouse(columnar) is warehouse  # same view: reuse
        other = ColumnarLog.from_log(figure3_log)
        engine.evaluate(other, parse("GetRefer"))
        assert engine.warehouse(other) is not warehouse  # new view: reload

    def test_warehouse_row_count_matches(self, figure3_log):
        warehouse = SqlWarehouse(figure3_log)
        (n,) = warehouse.connection.execute(
            "SELECT COUNT(*) FROM records"
        ).fetchone()
        warehouse.close()
        assert n == len(figure3_log)

    def test_compiled_sql_mentions_the_schema(self, figure3_log):
        branches = compile_to_sql(
            parse("SeeDoctor -> PayTreatment"), figure3_log.columnar()
        )
        assert len(branches) == 1
        sql = branches[0]
        assert "FROM records" in sql and "wid_id" in sql and "act_id" in sql
