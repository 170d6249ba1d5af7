"""Subsumption-aware batch planning: proved containment lets the batch
evaluate the subsuming query once and *derive* the other — with results
byte-for-byte identical to independent evaluation (the acceptance
criterion)."""

import pytest

from repro.cache import QueryCache
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.model import Log
from repro.core.options import EngineOptions
from repro.core.parser import parse
from repro.exec.batch import evaluate_batch
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

# "A ; B" ⊑ "A -> B" ⊑ "(A -> B) | (B -> A)" ≡ "A & B": one chain of
# strict containments plus one proved-equivalent alias.
SUBSUMED = ["A ; B", "A -> B"]
CHAINED = ["A ; B", "A -> B", "(A -> B) | (B -> A)", "A & B", "C"]
NO_OPTIMIZE = EngineOptions(optimize=False)


@pytest.fixture(scope="module")
def ab_log():
    return Log.from_traces(
        {
            1: ["A", "B", "Z", "A", "B"],
            2: ["B", "A", "Z", "B"],
            3: ["A", "Z", "B"],
            4: ["C", "A", "B", "C"],
            5: ["Z"],
        },
        interleave=True,
    )


def independent_rows(log, queries):
    return [
        VectorizedEngine().evaluate(log, parse(text)).to_rows()
        for text in queries
    ]


def batch_rows(result):
    return [incidents.to_rows() for incidents in result.results]


def test_subsumed_pair_meets_the_acceptance_criterion(ab_log):
    result = evaluate_batch(ab_log, SUBSUMED, NO_OPTIMIZE)
    assert result.subsumed >= 1
    assert result.proofs >= 1
    assert batch_rows(result) == independent_rows(ab_log, SUBSUMED)


def test_chained_derivations_and_alias_stay_exact(ab_log):
    result = evaluate_batch(ab_log, CHAINED, NO_OPTIMIZE)
    # A;B derives from A->B derives from the choice; A&B aliases it
    assert result.subsumed == 3
    assert batch_rows(result) == independent_rows(ab_log, CHAINED)


def test_analyze_flag_off_restores_the_status_quo(ab_log):
    planned = evaluate_batch(ab_log, CHAINED, NO_OPTIMIZE)
    plain = evaluate_batch(ab_log, CHAINED, NO_OPTIMIZE, analyze=False)
    assert plain.subsumed == 0 and plain.proofs == 0
    assert batch_rows(plain) == batch_rows(planned)


def test_optimized_batch_still_exact(ab_log):
    result = evaluate_batch(ab_log, CHAINED, EngineOptions(optimize=True))
    # set equality: normalisation may reorder ⊗ operands
    for got, text in zip(result.results, CHAINED):
        assert got == VectorizedEngine().evaluate(ab_log, parse(text))


def test_metrics_and_trace_report_the_plan(ab_log):
    tracer, registry = Tracer(), MetricsRegistry()
    result = evaluate_batch(
        ab_log, SUBSUMED, EngineOptions(tracer=tracer, metrics=registry)
    )
    assert registry.counter("analysis.subsumed").value == result.subsumed
    assert registry.counter("analysis.proofs").value == result.proofs
    root = tracer.last_root
    assert root is not None
    assert root.metrics["subsumed"] == result.subsumed
    assert root.metrics["proofs"] == result.proofs


def test_derived_results_populate_the_result_cache(ab_log):
    cache = QueryCache()
    evaluate_batch(ab_log, SUBSUMED, EngineOptions(cache=cache))
    warm = evaluate_batch(ab_log, SUBSUMED, EngineOptions(cache=cache))
    # both the scanned and the derived query answer from the cache
    assert warm.cache_hits == len(SUBSUMED)


def test_unprovable_patterns_degrade_to_scan(ab_log):
    # Guarded atoms are outside the prover's fragment: the batch must
    # still answer them correctly, with no subsumption claimed for them.
    from repro.extensions.conditions import Guarded
    from repro.core.pattern import Sequential

    guarded = Sequential(Guarded("A"), Guarded("B"))
    result = evaluate_batch(ab_log, [guarded, parse("A -> B")])
    assert batch_rows(result) == [
        VectorizedEngine().evaluate(ab_log, guarded).to_rows(),
        VectorizedEngine().evaluate(ab_log, parse("A -> B")).to_rows(),
    ]


def test_duplicate_queries_alias_without_rescanning(ab_log):
    result = evaluate_batch(ab_log, ["A -> B", "A -> B"], NO_OPTIMIZE)
    assert batch_rows(result)[0] == batch_rows(result)[1]


def test_repr_mentions_subsumption(ab_log):
    result = evaluate_batch(ab_log, SUBSUMED)
    assert "subsumed" in repr(result)
