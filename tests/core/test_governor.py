"""The per-query resource governor (repro.core.governor).

Covers context minting (absolute deadlines, validation, picklability),
the governor's check/charge semantics and error precedence, the typed
error hierarchy's pickle round-trip (workers raise these across process
pools), and the cooperative checkpoints in all four evaluation paths:
naive, indexed, the counting DP, and the incremental evaluator.
"""

import pickle

import pytest

from repro.core.errors import (
    QueryBudgetExceeded,
    QueryCancelled,
    QueryGovernorError,
    QueryTimeout,
    ReproError,
)
from repro.core.eval.base import EvaluationStats
from repro.core.eval.incremental import IncrementalEvaluator
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.governor import CancelToken, QueryContext, ResourceGovernor
from repro.core.options import EngineOptions
from repro.core.parser import parse
from repro.core.query import Query
from tests.conftest import ENGINE_CLASSES


def _stats(pairs: int) -> EvaluationStats:
    stats = EvaluationStats()
    stats.pairs_examined = pairs
    return stats


class TestQueryContext:
    def test_new_mints_distinct_ids(self):
        a, b = QueryContext.new(), QueryContext.new()
        assert a.query_id != b.query_id
        assert a.trace_id != b.trace_id
        assert a.query_id.startswith("q-") and a.trace_id.startswith("t-")

    def test_deadline_becomes_absolute_at_submission(self):
        ctx = QueryContext.new(deadline_ms=500, clock=lambda: 1000.0)
        assert ctx.deadline_unix == 1000.5
        assert ctx.deadline_ms == 500

    def test_governed_property(self):
        assert not QueryContext.new().governed
        assert QueryContext.new(deadline_ms=1).governed
        assert QueryContext.new(max_pairs=1).governed

    @pytest.mark.parametrize(
        "kwargs", [{"deadline_ms": 0}, {"deadline_ms": -5}, {"max_pairs": 0}]
    )
    def test_rejects_non_positive_budgets(self, kwargs):
        with pytest.raises(ReproError):
            QueryContext.new(**kwargs)

    def test_context_pickles_but_cancel_token_does_not(self):
        ctx = QueryContext.new(deadline_ms=100, max_pairs=5)
        assert pickle.loads(pickle.dumps(ctx)) == ctx
        with pytest.raises(Exception):
            pickle.dumps(CancelToken())


class TestResourceGovernor:
    def test_from_context_is_none_when_ungoverned(self):
        assert ResourceGovernor.from_context(QueryContext.new()) is None

    def test_from_context_with_cancel_token_only(self):
        governor = ResourceGovernor.from_context(
            QueryContext.new(), cancel=CancelToken()
        )
        assert governor is not None
        governor.check(_stats(10**9))  # no budgets: nothing trips

    def test_max_pairs_budget_trips_with_partial_stats(self):
        governor = ResourceGovernor(max_pairs=10)
        governor.check(_stats(10))  # at the limit: still fine
        stats = _stats(11)
        with pytest.raises(QueryBudgetExceeded) as info:
            governor.check(stats)
        assert info.value.limit == 10
        assert info.value.examined == 11
        assert info.value.partial_stats.pairs_examined == 11
        assert info.value.partial_stats is not stats  # detached snapshot

    def test_charged_units_count_toward_the_pairs_budget(self):
        governor = ResourceGovernor(max_pairs=10)
        governor.charge(8)
        governor.check(_stats(2))
        with pytest.raises(QueryBudgetExceeded) as info:
            governor.check(_stats(3))
        assert info.value.examined == 11

    def test_deadline_trips_with_injected_clock(self):
        now = [100.0]
        governor = ResourceGovernor(
            deadline_unix=100.5, deadline_ms=500, clock=lambda: now[0]
        )
        governor.check()
        now[0] = 100.6
        with pytest.raises(QueryTimeout) as info:
            governor.check(_stats(3))
        assert info.value.deadline_ms == 500
        assert info.value.elapsed_ms == pytest.approx(600.0)
        assert info.value.partial_stats.pairs_examined == 3

    def test_cancellation_wins_over_local_budgets(self):
        cancel = CancelToken()
        governor = ResourceGovernor(max_pairs=1, cancel=cancel)
        cancel.set()
        with pytest.raises(QueryCancelled):
            governor.check(_stats(10**6))


class TestErrorHierarchy:
    def test_governor_errors_are_repro_errors(self):
        for cls in (QueryBudgetExceeded, QueryTimeout, QueryCancelled):
            assert issubclass(cls, QueryGovernorError)
        assert issubclass(QueryGovernorError, ReproError)

    @pytest.mark.parametrize(
        "error",
        [
            QueryBudgetExceeded(
                "too many", limit=5, examined=9, partial_stats=_stats(9)
            ),
            QueryTimeout("too slow", deadline_ms=10, elapsed_ms=12.5),
            QueryCancelled("sibling died", partial_stats=_stats(2)),
        ],
    )
    def test_errors_pickle_round_trip(self, error):
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is type(error)
        assert str(clone) == str(error)
        for attr, value in error.__dict__.items():
            if attr == "partial_stats":
                continue
            assert getattr(clone, attr) == value
        if error.partial_stats is not None:
            assert (
                clone.partial_stats.pairs_examined
                == error.partial_stats.pairs_examined
            )


class TestEngineCheckpoints:
    """Every evaluation path honours the governor cooperatively."""

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_pairs_budget_kills_pairwise_evaluation(self, clinic_log, engine_cls):
        engine = engine_cls(governor=ResourceGovernor(max_pairs=3))
        with pytest.raises(QueryBudgetExceeded) as info:
            engine.evaluate(clinic_log, parse("GetRefer -> CheckIn -> SeeDoctor"))
        assert info.value.partial_stats is not None
        assert info.value.partial_stats.pairs_examined > 3

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_expired_deadline_kills_promptly(self, clinic_log, engine_cls):
        # an already-passed absolute deadline trips at the first checkpoint
        engine = engine_cls(governor=ResourceGovernor(deadline_unix=0.0))
        with pytest.raises(QueryTimeout):
            engine.evaluate(clinic_log, parse("GetRefer -> CheckIn"))

    def test_counting_dp_charges_abstract_units(self, clinic_log):
        engine = VectorizedEngine(governor=ResourceGovernor(max_pairs=3))
        with pytest.raises(QueryBudgetExceeded):
            engine.count(clinic_log, parse("GetRefer -> CheckIn"))

    def test_incremental_evaluator_checkpoints(self, clinic_log):
        evaluator = IncrementalEvaluator(
            parse("GetRefer -> CheckIn"),
            governor=ResourceGovernor(max_pairs=3),
        )
        with pytest.raises(QueryBudgetExceeded):
            for record in clinic_log:
                evaluator.append(record)

    def test_cancel_token_stops_mid_evaluation(self, clinic_log):
        cancel = CancelToken()
        cancel.set()
        engine = VectorizedEngine(governor=ResourceGovernor(cancel=cancel))
        with pytest.raises(QueryCancelled):
            engine.evaluate(clinic_log, parse("GetRefer -> CheckIn"))

    def test_ungoverned_engine_is_unaffected(self, clinic_log):
        engine = VectorizedEngine()
        result = engine.evaluate(clinic_log, parse("GetRefer -> CheckIn"))
        assert len(result) > 0


class TestQueryIntegration:
    def test_run_with_budget_raises_and_detaches_governor(self, clinic_log):
        query = Query(
            "GetRefer -> CheckIn -> SeeDoctor", EngineOptions(max_pairs=3)
        )
        with pytest.raises(QueryBudgetExceeded) as info:
            query.run(clinic_log)
        assert info.value.partial_stats is not None
        assert query.engine.governor is None  # reset on the unwind path

    def test_ungoverned_run_installs_no_governor(self, clinic_log):
        query = Query("GetRefer -> CheckIn")
        query.run(clinic_log)
        assert query.engine.governor is None

    def test_generous_budgets_do_not_kill(self, clinic_log):
        governed = Query(
            "GetRefer -> CheckIn",
            EngineOptions(deadline_ms=60_000, max_pairs=10**9),
        )
        plain = Query("GetRefer -> CheckIn")
        assert governed.run(clinic_log).to_set() == plain.run(clinic_log).to_set()

    def test_options_validate_budgets(self):
        with pytest.raises(ReproError):
            EngineOptions(deadline_ms=0)
        with pytest.raises(ReproError):
            EngineOptions(max_pairs=0)
