"""Unit tests for the high-level Query API."""

import pytest

from repro.core.errors import ReproError
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.options import EngineOptions
from repro.core.query import ENGINES, Query
from repro.core.parser import parse
from repro.core.pattern import Atomic


class TestConstruction:
    def test_accepts_text_and_patterns(self):
        assert Query("A -> B").pattern == parse("A -> B")
        assert Query(Atomic("A") >> Atomic("B")).pattern == parse("A -> B")

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            Query(42)  # type: ignore[arg-type]

    def test_engine_registry(self):
        assert set(ENGINES) == {"naive", "vectorized"}
        assert isinstance(Query("A", EngineOptions(engine="naive")).engine, NaiveEngine)
        # one spelling of the default: None resolves to the join kernel
        assert isinstance(Query("A").engine, VectorizedEngine)

    def test_engine_instances_pass_through(self):
        engine = NaiveEngine(max_incidents=5)
        assert Query("A", EngineOptions(engine=engine)).engine is engine

    def test_unknown_engine_name(self):
        with pytest.raises(ReproError):
            Query("A", EngineOptions(engine="warp-drive"))

    def test_the_deleted_indexed_engine_name_is_unknown(self):
        # no alias is kept: the error lists what is left
        with pytest.raises(ReproError, match=r"\['naive', 'vectorized'\]"):
            Query("A", EngineOptions(engine="indexed"))


class TestExecution:
    def test_run_count_exists_are_consistent(self, figure3_log):
        query = Query("SeeDoctor -> PayTreatment")
        result = query.run(figure3_log)
        assert query.count(figure3_log) == len(result)
        assert query.exists(figure3_log) == bool(result)

    def test_matching_instances(self, figure3_log):
        assert Query("UpdateRefer").matching_instances(figure3_log) == (2,)
        assert Query("GetRefer").matching_instances(figure3_log) == (1, 2, 3)

    def test_optimization_does_not_change_results(self, clinic_log):
        text = "(GetRefer -> GetReimburse) | (GetRefer -> TerminateRefer)"
        with_opt = Query(text, EngineOptions(optimize=True)).run(clinic_log)
        without = Query(text, EngineOptions(optimize=False)).run(clinic_log)
        assert with_opt == without

    def test_max_incidents_is_forwarded(self, figure3_log):
        from repro.core.errors import BudgetExceededError

        query = Query("!Ghost & !Ghost & !Ghost", EngineOptions(max_incidents=10))
        with pytest.raises(BudgetExceededError):
            query.run(figure3_log)


class TestCountRouting:
    """A ``count`` that misses is a ``run`` unless the counting DP counts
    it: the set it has to build anyway is stored and carried over an
    append like a ``run``'s."""

    def test_a_count_the_dp_cannot_do_is_stored_and_served(self):
        from repro.cache import QueryCache
        from repro.logstore import LogStore

        store = LogStore()
        for _ in range(3):
            wid = store.open_instance()
            for activity in ("A", "B", "A", "B"):
                store.append(wid, activity)
        query = Query("A & B", EngineOptions(cache=QueryCache()))
        cold = query.count(store.snapshot())
        assert query.last_cache_layer is None
        assert query.count(store.snapshot()) == cold
        assert query.last_cache_layer == "result"
        store.append(1, "A")
        grown = query.count(store.snapshot())
        assert query.last_cache_layer == "delta"
        assert grown == Query("A & B").count(store.snapshot()) > cold
        assert query.count(store.snapshot()) == grown
        assert query.last_cache_layer == "result"

    def test_a_chain_count_keeps_the_dp_and_stores_nothing(self, figure3_log):
        from repro.cache import QueryCache

        cache = QueryCache()
        query = Query("SeeDoctor -> PayTreatment", EngineOptions(cache=cache))
        query.count(figure3_log)
        query.count(figure3_log)
        assert query.last_cache_layer is None
        assert cache.stats()["result_entries"] == 0

    def test_a_dp_count_leaves_no_stale_stats(self, clinic_log):
        from repro.obs.journal import QueryJournal

        journal = QueryJournal()
        query = Query("GetRefer -> CheckIn", EngineOptions(journal=journal))
        query.run(clinic_log)
        assert query.engine.last_stats.pairs_examined > 0
        query.count(clinic_log)
        assert query.engine.last_stats is None
        assert journal.events[-1]["event"] == "finish"
        assert journal.events[-1]["pairs"] == 0


class TestIntrospection:
    def test_plan_exposes_costs(self, figure3_log):
        plan = Query("A -> B").plan(figure3_log)
        assert plan.original == parse("A -> B")
        assert plan.optimized_cost >= 0

    def test_plan_with_optimization_disabled(self, figure3_log):
        plan = Query("A -> B", EngineOptions(optimize=False)).plan(figure3_log)
        assert plan.optimized == plan.original
        assert "disabled" in plan.transformations[0]

    def test_explain_includes_tree_and_engine(self, figure3_log):
        text = Query("SeeDoctor -> PayTreatment").explain(figure3_log)
        assert "incident tree" in text
        assert "⊳" in text
        assert "engine: vectorized" in text

    def test_repr(self):
        assert "A -> B" in repr(Query("A -> B"))
