"""Identity aliasing in a batch: a query with the identity (the normal
form under Theorems 2-5) of an earlier query shares that query's
incident set instead of scanning, with results byte-for-byte identical
to independent evaluation (the acceptance criterion).  A query only
strictly contained in a sibling, or equivalent to it by a proof the
normal form does not capture, is scanned like any other."""

import random

import pytest

from repro.analysis import PatternProver
from repro.cache import QueryCache
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.lint import lint_batch
from repro.core.model import Log
from repro.core.optimizer import identity
from repro.core.options import EngineOptions
from repro.core.parser import parse
from repro.core.pattern import Atomic, Choice, Consecutive, Parallel, Sequential
from repro.core.query import Query
from repro.exec.batch import evaluate_batch
from repro.logstore import LogStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

# "A ; B" ⊑ "A -> B" ⊑ "(A -> B) | (B -> A)" ≡ "A & B": one chain of
# strict containments, one equivalence only the prover shows, and one
# alias by identity (⊗ is commutative, Theorem 3).
SUBSUMED = ["(A -> B) | (B -> A)", "(B -> A) | (A -> B)"]
PROVED = ["A & B", "(A -> B) | (B -> A)"]
CONTAINED = ["A ; B", "A -> B"]
CHAINED = ["A ; B", "A -> B", "(A -> B) | (B -> A)", "A & B", "(B -> A) | (A -> B)", "C"]
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
    assert result.subsumed == 1
    assert batch_rows(result) == independent_rows(ab_log, SUBSUMED)


def test_chained_containments_scan_and_the_alias_stays_exact(ab_log):
    result = evaluate_batch(ab_log, CHAINED, NO_OPTIMIZE)
    # the commuted choice aliases the choice; the strictly contained
    # A;B and A->B and the prover-only equivalent A&B scan
    assert result.subsumed == 1
    assert batch_rows(result) == independent_rows(ab_log, CHAINED)


def test_strict_containment_skips_nothing(ab_log):
    planned = evaluate_batch(ab_log, CONTAINED, NO_OPTIMIZE)
    assert planned.subsumed == 0
    assert batch_rows(planned) == independent_rows(ab_log, CONTAINED)


def test_a_prover_only_equivalence_is_scanned(ab_log):
    # A & B ≡ (A -> B) | (B -> A) on every log, but their normal forms
    # differ: both are scanned, and the rows are still the independent ones
    result = evaluate_batch(ab_log, PROVED, NO_OPTIMIZE)
    assert result.subsumed == 0
    assert batch_rows(result) == independent_rows(ab_log, PROVED)
    assert result.stats == evaluate_batch(ab_log, PROVED[::-1], NO_OPTIMIZE).stats


def test_a_batch_never_calls_the_prover(ab_log, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the prover was called")

    monkeypatch.setattr(PatternProver, "compiles", refuse)
    monkeypatch.setattr(PatternProver, "equivalent", refuse)
    for options in (NO_OPTIMIZE, EngineOptions(), EngineOptions(cache=QueryCache())):
        result = evaluate_batch(ab_log, CHAINED, options)
        assert result.subsumed == 1
        assert [set(r) for r in result] == [
            set(VectorizedEngine().evaluate(ab_log, parse(text))) for text in CHAINED
        ]


def test_every_repeat_of_a_long_batch_aliases(ab_log):
    # more positions than the prover's planner ever took (24)
    family = ["A -> B", "B | A", "A | B", "(A ; B) & C", "C & (A ; B)", "A -> (B -> C)"]
    batch = [family[i % len(family)] for i in range(30)]
    result = evaluate_batch(ab_log, batch, NO_OPTIMIZE)
    distinct = {identity(parse(text)) for text in batch}
    assert len(distinct) == 4
    assert result.subsumed == 30 - 4
    assert batch_rows(result) == independent_rows(ab_log, batch)


def test_duplicate_guarded_atoms_alias(ab_log):
    from repro.extensions.conditions import Guarded

    guarded = Sequential(Guarded("A"), Guarded("B"))
    batch = [guarded, parse("A -> B"), Sequential(Guarded("A"), Guarded("B"))]
    result = evaluate_batch(ab_log, batch)
    assert result.subsumed == 1
    assert batch_rows(result) == [
        VectorizedEngine().evaluate(ab_log, pattern).to_rows() for pattern in batch
    ]


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
    assert result.subsumed == 1
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
    the independent one, row for row; ``subsumed`` counts the positions
    whose identity an earlier position has, QW501 fires at exactly those,
    and the batch does exactly the work of its first positions alone."""
    rng = random.Random(36)
    aliased = 0
    for _ in range(200):
        batch = [random_pattern(rng, rng.randint(1, 3)) for _ in range(rng.randint(2, 6))]
        planned = evaluate_batch(ab_log, batch, NO_OPTIMIZE)
        assert batch_rows(planned) == [
            VectorizedEngine().evaluate(ab_log, pattern).to_rows() for pattern in batch
        ]
        first: dict = {}
        repeats = [j for j, p in enumerate(batch) if first.setdefault(identity(p), j) != j]
        assert planned.subsumed == len(repeats)
        flagged = [j for j, found in enumerate(lint_batch(batch))
                   if any(d.code == "QW501" for d in found)]
        assert flagged == repeats
        leaders = evaluate_batch(ab_log, [batch[i] for i in first.values()], NO_OPTIMIZE)
        assert planned.stats == leaders.stats
        aliased += bool(repeats)
    assert aliased  # the sweep does exercise the alias path
