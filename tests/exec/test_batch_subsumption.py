"""Subsumption-aware batch planning: a query proved equivalent to a
sibling shares the sibling's incident set instead of scanning, with
results byte-for-byte identical to independent evaluation (the
acceptance criterion).  A query only proved strictly contained in a
sibling is scanned like any other."""

import random

import pytest

from repro.cache import QueryCache
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.model import Log
from repro.core.options import EngineOptions
from repro.core.parser import parse
from repro.core.pattern import Atomic, Choice, Consecutive, Parallel, Sequential
from repro.core.query import Query
from repro.exec.batch import evaluate_batch
from repro.logstore import LogStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

# "A ; B" ⊑ "A -> B" ⊑ "(A -> B) | (B -> A)" ≡ "A & B": one chain of
# strict containments plus one proved-equivalent alias.
SUBSUMED = ["A & B", "(A -> B) | (B -> A)"]
CONTAINED = ["A ; B", "A -> B"]
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
    assert batch_rows(result) == independent_rows(ab_log, SUBSUMED)


def test_chained_containments_scan_and_the_alias_stays_exact(ab_log):
    result = evaluate_batch(ab_log, CHAINED, NO_OPTIMIZE)
    # A&B aliases the choice; the strictly contained A;B and A->B scan
    assert result.subsumed == 1
    assert batch_rows(result) == independent_rows(ab_log, CHAINED)


def test_strict_containment_skips_nothing(ab_log):
    planned = evaluate_batch(ab_log, CONTAINED, NO_OPTIMIZE)
    plain = evaluate_batch(ab_log, CONTAINED, NO_OPTIMIZE, analyze=False)
    assert planned.subsumed == 0
    assert planned.stats == plain.stats
    assert batch_rows(planned) == batch_rows(plain) == independent_rows(ab_log, CONTAINED)


@pytest.mark.parametrize(
    "batch", [SUBSUMED, CONTAINED, CHAINED], ids=["aliased", "contained", "chained"]
)
def test_every_result_is_span_form(ab_log, batch):
    result = evaluate_batch(ab_log, batch, NO_OPTIMIZE)
    assert all(incidents.canonical_spans() is not None for incidents in result.results)


def test_a_contained_query_answers_by_delta_after_an_append():
    store = LogStore()
    for _ in range(3):
        wid = store.open_instance()
        for activity in ("GetRefer", "CheckIn", "SeeDoctor"):
            store.append(wid, activity)
    cache = QueryCache()
    evaluate_batch(
        store.snapshot(), ["GetRefer ; CheckIn", "GetRefer -> CheckIn"], EngineOptions(cache=cache)
    )
    store.append_batch([(wid, "GetRefer", None, None), (wid, "CheckIn", None, None)])
    snapshot = store.snapshot()
    query = Query("GetRefer ; CheckIn", EngineOptions(cache=cache))
    got = query.run(snapshot)
    # the batch cached a kernel result, so only the touched instance is joined
    assert query.last_cache_layer == "delta"
    cold = VectorizedEngine().evaluate(snapshot, parse("GetRefer ; CheckIn"))
    assert got.to_rows() == cold.to_rows()


def test_analyze_flag_off_restores_the_status_quo(ab_log):
    planned = evaluate_batch(ab_log, CHAINED, NO_OPTIMIZE)
    plain = evaluate_batch(ab_log, CHAINED, NO_OPTIMIZE, analyze=False)
    assert plain.subsumed == 0
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
    # one proof per alias: ``subsumed`` is the whole account
    assert "analysis.proofs" not in registry.snapshot()["counters"]
    root = tracer.last_root
    assert root is not None
    assert root.metrics["subsumed"] == result.subsumed
    assert "proofs" not in root.metrics and not hasattr(result, "proofs")


def test_aliased_results_populate_the_result_cache(ab_log):
    cache = QueryCache()
    evaluate_batch(ab_log, SUBSUMED, EngineOptions(cache=cache))
    warm = evaluate_batch(ab_log, SUBSUMED, EngineOptions(cache=cache))
    # both the scanned and the aliased query answer from the cache
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


def random_pattern(rng: random.Random, leaves: int):
    if leaves == 1:
        return Atomic(rng.choice("ABC"), rng.random() < 0.2)
    split = rng.randint(1, leaves - 1)
    operator = rng.choice((Consecutive, Sequential, Choice, Parallel))
    return operator(random_pattern(rng, split), random_pattern(rng, leaves - split))


def test_seeded_sweep_matches_independent_evaluation(ab_log):
    """200 random batches of 2-6 patterns over {A, B, C}: every result is
    the independent one, row for row, and a batch with no aliased
    position does exactly the work of the unanalysed batch."""
    rng = random.Random(36)
    aliased = 0
    for _ in range(200):
        batch = [random_pattern(rng, rng.randint(1, 3)) for _ in range(rng.randint(2, 6))]
        planned = evaluate_batch(ab_log, batch, NO_OPTIMIZE)
        plain = evaluate_batch(ab_log, batch, NO_OPTIMIZE, analyze=False)
        assert batch_rows(planned) == [
            VectorizedEngine().evaluate(ab_log, pattern).to_rows() for pattern in batch
        ]
        if planned.subsumed:
            aliased += 1
        else:
            assert planned.stats == plain.stats
    assert aliased  # the sweep does exercise the alias path
