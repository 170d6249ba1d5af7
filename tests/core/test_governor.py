"""The per-query resource governor (repro.core.governor).

Covers context minting (absolute deadlines, validation, picklability),
the governor's check semantics and error precedence, the typed
error hierarchy's pickle round-trip (workers raise these across process
pools), and the cooperative checkpoints in all four evaluation paths:
naive, the join kernel, the kernel's count pass, and the incremental
evaluator.
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
from repro.core.governor import CancelToken, QueryContext, ResourceGovernor, begin_run
from repro.core.model import Log
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


class TestBeginRun:
    PATTERNS = (parse("A -> B"),)

    def test_begin_run_builds_nothing_when_ungoverned(self):
        assert begin_run(EngineOptions(), self.PATTERNS, "run") == (None, None)

    def test_begin_run_with_cancel_token_only(self):
        cancel = CancelToken()
        recorder, governor = begin_run(
            EngineOptions(cancel=cancel), self.PATTERNS, "run"
        )
        assert recorder is None and governor is not None
        governor.check(_stats(10**9))  # no budgets: nothing trips
        assert cancel.governor is governor  # the token's holder reads progress

    def test_deadline_becomes_absolute_at_begin(self, monkeypatch):
        monkeypatch.setattr("repro.core.governor.time.time", lambda: 1000.0)
        _, governor = begin_run(EngineOptions(deadline_ms=500), self.PATTERNS, "run")
        assert governor.deadline_unix == 1000.5
        assert governor.deadline_ms == 500

    def test_governed_options_build_a_governor(self):
        assert not EngineOptions().governed
        for options in (EngineOptions(deadline_ms=1), EngineOptions(max_pairs=1)):
            assert options.governed
            assert begin_run(options, self.PATTERNS, "run")[1] is not None

    def test_a_context_is_minted_only_for_a_journal(self, monkeypatch):
        from repro.obs.journal import QueryJournal

        minted = []
        real = QueryContext.new.__func__
        monkeypatch.setattr(
            QueryContext,
            "new",
            classmethod(lambda cls, **kw: minted.append(kw) or real(cls, **kw)),
        )
        begin_run(EngineOptions(max_pairs=5, deadline_ms=9.0), self.PATTERNS, "run")
        assert minted == []
        journal = QueryJournal()
        patterns = self.PATTERNS + (parse("C"), parse("D"))
        recorder, _ = begin_run(
            EngineOptions(journal=journal, max_pairs=5), patterns, "batch", queries=3
        )
        assert minted == [{"deadline_ms": None, "max_pairs": 5}]
        (submit,) = journal.events
        assert submit["query_id"] == recorder.ctx.query_id
        assert submit["pattern"] == "A -> B (+2 more)"
        assert submit["op"] == "batch" and submit["queries"] == 3


class TestResourceGovernor:

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

    def test_scanned_positions_count_toward_the_pairs_budget(self):
        # a count examines no pairs: its scanned leaf positions are its
        # work, checked after each window (here one of 3 x 300 positions)
        engine = VectorizedEngine(governor=ResourceGovernor(max_pairs=100))
        with pytest.raises(QueryBudgetExceeded) as info:
            engine.count(Log.from_traces([["A"] * 300]), parse("A -> A -> A"))
        assert info.value.examined == 900
        assert info.value.partial_stats.pairs_examined == 900
        assert "(examined 900)" in str(info.value)

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

    @pytest.mark.parametrize("kill", ["max_pairs", "deadline", "cancel"])
    def test_a_killed_count_carries_partial_stats(self, clinic_log, kill):
        cancel = CancelToken()
        cancel.set()
        governor, error = {
            "max_pairs": (ResourceGovernor(max_pairs=3), QueryBudgetExceeded),
            "deadline": (ResourceGovernor(deadline_unix=0.0), QueryTimeout),
            "cancel": (ResourceGovernor(cancel=cancel), QueryCancelled),
        }[kill]
        engine = VectorizedEngine(governor=governor)
        with pytest.raises(error) as info:
            engine.count(clinic_log, parse("GetRefer -> CheckIn"))
        assert info.value.partial_stats is not None
        assert info.value.partial_stats.operator_evals == 0

    def test_a_completed_governed_count_leaves_no_stats(self, clinic_log):
        engine = VectorizedEngine(governor=ResourceGovernor(max_pairs=10**9))
        assert engine.count(clinic_log, parse("GetRefer -> CheckIn")) > 0
        assert engine.last_stats is None

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
        assert frozenset(governed.run(clinic_log)) == frozenset(plain.run(clinic_log))

    def test_options_validate_budgets(self):
        with pytest.raises(ReproError):
            EngineOptions(deadline_ms=0)
        with pytest.raises(ReproError):
            EngineOptions(max_pairs=0)
