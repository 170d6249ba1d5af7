"""Batch evaluation in one pass: same results, strictly less work."""

import gc
import types

import pytest

from repro.cache import QueryCache
from repro.core.errors import QueryBudgetExceeded
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.incident import IncidentSet
from repro.core.options import EngineOptions
from repro.core.parser import parse
from repro.core.query import Query
from repro.exec.batch import evaluate_batch
from repro.logstore import LogStore
from repro.obs.journal import QueryJournal
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from tests.support import workloads

QUERIES = [
    "GetRefer -> CheckIn",
    "GetRefer -> CheckIn -> SeeDoctor",
    "GetRefer -> CheckIn -> UpdateRefer",
]


def independent(log, queries):
    """Per-query results and the total pairs of N separate evaluations."""
    results, pairs = [], 0
    for text in queries:
        engine = VectorizedEngine()
        results.append(engine.evaluate(log, parse(text)))
        pairs += engine.last_stats.pairs_examined
    return results, pairs


def test_batch_equals_independent_with_fewer_pairs(clinic_log):
    expected, indep_pairs = independent(clinic_log, QUERIES)
    batch = evaluate_batch(clinic_log, QUERIES, EngineOptions(optimize=False))
    for got, want in zip(batch.results, expected):
        assert list(got) == list(want)
    # the acceptance criterion: strictly fewer pairs than N independent
    # evaluations, via the forest's shared subpattern nodes
    assert batch.stats.pairs_examined < indep_pairs
    assert batch.shared_hits > 0


def test_batch_with_normalisation_still_equal(clinic_log):
    expected, _ = independent(clinic_log, QUERIES)
    batch = evaluate_batch(clinic_log, QUERIES, EngineOptions(optimize=True))
    for got, want in zip(batch.results, expected):
        assert got == want  # set equality (normalisation may reorder ⊗)


def test_duplicate_query_costs_nothing_extra(clinic_log):
    single = evaluate_batch(clinic_log, [QUERIES[0]], EngineOptions(optimize=False))
    doubled = evaluate_batch(
        clinic_log, [QUERIES[0], QUERIES[0]], EngineOptions(optimize=False)
    )
    assert doubled.results[0] == doubled.results[1] == single.results[0]
    # the repeat is the first root's node: zero extra pairs
    assert doubled.stats.pairs_examined == single.stats.pairs_examined


def test_shared_scan_engine_counts_hits(figure3_log):
    engine = VectorizedEngine()
    pattern = parse("(GetRefer -> CheckIn) | ((GetRefer -> CheckIn) -> SeeDoctor)")
    (result,), shared_hits = engine.evaluate_all(figure3_log, [pattern])
    # "GetRefer -> CheckIn" appears in both branches: the second
    # occurrence is the first one's node, answered once per instance
    # without its join
    assert shared_hits == len(figure3_log.wids)
    plain = VectorizedEngine()
    assert result == plain.evaluate(figure3_log, pattern)
    assert engine.last_stats.pairs_examined < plain.last_stats.pairs_examined
    # composite nodes and roots are shared; leaves come off the activity
    # index as fast as a memo, so a repeated leaf is no hit
    _, leaf_hits = VectorizedEngine().evaluate_all(
        figure3_log, [parse("(GetRefer -> CheckIn) | (GetRefer -> SeeDoctor)")]
    )
    assert leaf_hits == 0


def test_the_kernel_has_no_share_knob():
    with pytest.raises(TypeError):
        VectorizedEngine(share=True)


def test_evaluate_all_keeps_no_window_intermediate(clinic_log):
    """Once ``evaluate_all`` returns, nothing reachable from the engine
    holds a span list or a position set: the memoised nodes and their
    last window's results went with the call, freed by reference
    counting, with no cycle left for the collector."""
    engine = VectorizedEngine()
    patterns = [parse(q) for q in QUERIES]
    gc.collect()
    gc.disable()
    try:
        results, shared_hits = engine.evaluate_all(clinic_log, patterns)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert shared_hits > 0 and all(results)
    seen, stack = set(), [engine]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, (frozenset, IncidentSet)), obj
        assert not callable(obj) or isinstance(obj, (types.BuiltinFunctionType, types.MethodType)), obj
        stack.extend(gc.get_referents(obj))


def test_a_killed_batch_reports_the_pairs_it_was_killed_at():
    """One stats and one governor account per batch: the partial stats
    of a ``max_pairs`` kill are the pairs the governor counted."""
    log = workloads.clinic_log(200, seed=3)
    patterns = ["GetRefer -> CheckIn", "UpdateRefer -> GetReimburse"]
    journal = QueryJournal()
    with pytest.raises(QueryBudgetExceeded) as info:
        evaluate_batch(log, patterns, EngineOptions(max_pairs=200, journal=journal))
    assert info.value.examined > 200
    assert info.value.partial_stats.pairs_examined == info.value.examined
    assert journal.events[-1]["event"] == "killed"
    assert journal.events[-1]["pairs"] == info.value.examined


def test_a_batch_after_an_append_joins_only_the_touched_instance():
    """A batch asked before an append and again after it is one delta pass:
    each position the cache holds at the earlier epoch is joined only on
    the instance appended to, and the rows are a cold batch's."""
    store = LogStore.from_log(workloads.clinic_log(60, seed=7))
    options = EngineOptions(cache=QueryCache())
    evaluate_batch(store.snapshot(), QUERIES, options)
    wid = store.open_instance()
    store.append_batch(
        [(wid, activity, None, None) for activity in ("GetRefer", "CheckIn", "SeeDoctor")]
    )
    snapshot = store.snapshot()
    after = evaluate_batch(snapshot, QUERIES, options)
    cold = evaluate_batch(snapshot, QUERIES)
    assert [r.to_rows() for r in after] == [r.to_rows() for r in cold]
    assert after.cache_hits == 0 and len(after.results[0]) == len(cold.results[0]) > 1
    # the work is the batch's over the touched instance alone
    assert after.stats == evaluate_batch(snapshot.project([wid]), QUERIES).stats
    assert after.stats.pairs_examined < cold.stats.pairs_examined


def test_batch_observability(clinic_log):
    tracer = Tracer()
    registry = MetricsRegistry()
    batch = evaluate_batch(
        clinic_log, QUERIES, EngineOptions(tracer=tracer, metrics=registry)
    )
    root = tracer.last_root
    assert root is not None and root.label == "batch"
    assert root.metrics["queries"] == len(QUERIES)
    assert root.metrics["shared_hits"] == batch.shared_hits
    assert registry.counter("exec.batch_shared_hits").value == batch.shared_hits
    assert registry.counter("engine.evaluations").value == 1


def test_batch_input_validation(clinic_log):
    with pytest.raises(ValueError):
        evaluate_batch(clinic_log, [])


def test_query_facade_delegates(clinic_log):
    batch = Query.evaluate_batch(clinic_log, QUERIES)
    assert len(batch) == len(QUERIES)
    assert [len(r) for r in batch] == [
        len(r) for r in evaluate_batch(clinic_log, QUERIES).results
    ]
