"""Shared-scan batch evaluation: same results, strictly less work."""

import pytest

from repro.core.eval.vectorized import VectorizedEngine
from repro.core.parser import parse
from repro.core.query import Query
from repro.exec.batch import evaluate_batch
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

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
    batch = evaluate_batch(clinic_log, QUERIES, optimize=False)
    for got, want in zip(batch.results, expected):
        assert list(got) == list(want)
    # the acceptance criterion: strictly fewer pairs than N independent
    # evaluations, via the in-run (window, subpattern) share
    assert batch.stats.pairs_examined < indep_pairs
    assert batch.shared_hits > 0


def test_batch_with_normalisation_still_equal(clinic_log):
    expected, _ = independent(clinic_log, QUERIES)
    batch = evaluate_batch(clinic_log, QUERIES, optimize=True)
    for got, want in zip(batch.results, expected):
        assert got == want  # set equality (normalisation may reorder ⊗)


def test_duplicate_query_costs_nothing_extra(clinic_log):
    single = evaluate_batch(clinic_log, [QUERIES[0]], optimize=False)
    doubled = evaluate_batch(
        clinic_log, [QUERIES[0], QUERIES[0]], optimize=False
    )
    assert doubled.results[0] == doubled.results[1] == single.results[0]
    # the repeat is answered fully from the share: zero extra pairs
    assert doubled.stats.pairs_examined == single.stats.pairs_examined


def test_shared_scan_engine_counts_hits(figure3_log):
    engine = VectorizedEngine(share=True)
    pattern = parse("(GetRefer -> CheckIn) | ((GetRefer -> CheckIn) -> SeeDoctor)")
    result = engine.evaluate(figure3_log, pattern)
    # "GetRefer -> CheckIn" appears in both branches: the second
    # occurrence hits, once per instance, and skips its join entirely
    assert engine.shared_hits == len(figure3_log.wids)
    plain = VectorizedEngine()
    assert result == plain.evaluate(figure3_log, pattern)
    assert engine.last_stats.pairs_examined < plain.last_stats.pairs_examined
    # composite nodes and the root are shared; leaves come off the
    # activity index faster than a probe, so a repeated leaf is no hit
    leaves = VectorizedEngine(share=True)
    leaves.evaluate(figure3_log, parse("(GetRefer -> CheckIn) | (GetRefer -> SeeDoctor)"))
    assert leaves.shared_hits == 0


def test_batch_observability(clinic_log):
    tracer = Tracer()
    registry = MetricsRegistry()
    batch = evaluate_batch(
        clinic_log, QUERIES, tracer=tracer, metrics=registry
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
