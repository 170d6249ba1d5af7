"""Engine-level tracing/metrics integration.

The key invariant (also an acceptance criterion for ``repro-logs
profile``): the pairs recorded on trace spans reconcile *exactly* with
``EvaluationStats.pairs_examined`` — every examined pair is attributed
to exactly one pattern node.
"""

import pytest

from repro.core.eval.incremental import IncrementalEvaluator
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.model import Log
from repro.core.parser import parse
from repro.core.options import EngineOptions
from repro.core.query import Query
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from tests.conftest import ENGINE_CLASSES

LOG = Log.from_traces(
    [["A", "B", "C", "A", "B"], ["B", "A", "C", "B"]],
    interleave=True,
)
PATTERNS = ["A -> B", "A ; B", "(A -> B) | C", "A & B", "A -> (B | C)"]


class TestPairsReconciliation:
    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    @pytest.mark.parametrize("text", PATTERNS)
    def test_span_pairs_sum_to_stats(self, engine_cls, text):
        tracer = Tracer()
        engine = engine_cls(tracer=tracer)
        engine.evaluate(LOG, parse(text))
        root = tracer.last_root
        assert root.total("pairs") == engine.last_stats.pairs_examined
        # stats additionally count the final cross-wid union at the
        # evaluate level, so the span total is a strict component of it
        assert 0 < root.total("incidents") <= engine.last_stats.incidents_produced

    @pytest.mark.parametrize("text", PATTERNS)
    def test_incremental_span_pairs_sum_to_stats(self, text):
        tracer = Tracer()
        evaluator = IncrementalEvaluator(parse(text), tracer=tracer)
        for record in LOG.records:
            evaluator.append(record)
        assert tracer.last_root.total("pairs") == evaluator.stats.pairs_examined


class TestStatsExtensions:
    def test_max_live_incidents_tracks_peak(self):
        engine = NaiveEngine()
        engine.evaluate(LOG, parse("A -> B"))
        stats = engine.last_stats
        # peak of any single live set: at least the final result size,
        # never more than the cumulative production count
        assert 0 < stats.max_live_incidents <= stats.incidents_produced

    def test_note_operator_feeds_registry(self):
        registry = MetricsRegistry()
        engine = NaiveEngine(metrics=registry)
        engine.evaluate(LOG, parse("(A -> B) | C"))
        snap = registry.snapshot()
        # two operator nodes, evaluated once per workflow instance (2 wids)
        assert snap["counters"]["engine.operator_evals"] == 4
        assert snap["counters"]["engine.operator_evals.⊳"] == 2
        assert snap["counters"]["engine.operator_evals.⊗"] == 2
        assert (
            snap["counters"]["engine.pairs_examined"]
            == engine.last_stats.pairs_examined
        )
        assert (
            snap["gauges"]["engine.max_live_incidents"]
            == engine.last_stats.max_live_incidents
        )

    def test_stats_equality_ignores_registry(self):
        plain = NaiveEngine()
        plain.evaluate(LOG, parse("A -> B"))
        metered = NaiveEngine(metrics=MetricsRegistry())
        metered.evaluate(LOG, parse("A -> B"))
        assert plain.last_stats == metered.last_stats


class TestQueryForwarding:
    def test_query_threads_tracer_and_metrics(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        query = Query("A -> B", EngineOptions(tracer=tracer, metrics=registry))
        result = query.run(LOG)
        assert len(result) > 0
        assert tracer.last_root is not None
        assert tracer.last_root.total("pairs") == query.engine.last_stats.pairs_examined
        assert registry.snapshot()["counters"]["engine.evaluations"] == 1

    def test_engine_instance_keeps_its_own_hooks(self):
        tracer = Tracer()
        engine = VectorizedEngine(tracer=tracer)
        Query("A -> B", EngineOptions(engine=engine)).run(LOG)
        assert engine.tracer is tracer
        assert tracer.last_root is not None


def test_disabled_tracing_records_nothing():
    engine = NaiveEngine()
    engine.evaluate(LOG, parse("A -> B"))
    assert engine.last_trace is None
    assert engine.last_stats.pairs_examined > 0
