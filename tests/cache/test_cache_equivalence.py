"""Property: a cached evaluation is byte-for-byte identical to a cold
one — same incidents, same canonical order — also across store appends:
the entry of the earlier epoch does not serve, it is what the run starts
from, joining only the instances appended to (``"delta"``).

Each property also runs with a live tracer: the cache probe is a span
beside the kernel's own, and traced and counted pairs must still
reconcile.  A cold run with a cache attached is the plain kernel plus one
probe, so its ``EvaluationStats`` equal the uncached run's.

Plus ``evaluate_batch`` reuse of cached results.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import EngineOptions, IncidentSet, Query
from repro.cache import QueryCache
from repro.core.errors import QueryBudgetExceeded
from repro.core.pattern import (
    Atomic,
    Choice,
    Consecutive,
    Parallel,
    Sequential,
)
from repro.logstore.store import LogStore
from repro.obs.tracer import Tracer

ALPHABET = ("A", "B", "C")


def atoms():
    return st.builds(Atomic, st.sampled_from(ALPHABET), st.booleans())


def patterns(max_leaves=4):
    return st.recursive(
        atoms(),
        lambda children: st.builds(
            lambda cls, l, r: cls(l, r),
            st.sampled_from((Consecutive, Sequential, Choice, Parallel)),
            children,
            children,
        ),
        max_leaves=max_leaves,
    )


def traces():
    return st.dictionaries(
        keys=st.integers(min_value=1, max_value=4),
        values=st.lists(
            st.sampled_from(ALPHABET + ("Z",)), min_size=1, max_size=6
        ),
        min_size=1,
        max_size=4,
    )


def make_store(trace_map):
    store = LogStore()
    for wid, activities in trace_map.items():
        store.open_instance(wid)
        for activity in activities:
            store.append(wid=wid, activity=activity)
    return store


def rows(result: IncidentSet):
    """The full observable content in canonical order."""
    return result.to_rows()


def engine_options(cache, traced):
    """Options for a cached query, with or without a live tracer."""
    return EngineOptions(cache=cache, tracer=Tracer() if traced else None)


def assert_pairs_reconcile(query):
    """The traced ``pairs`` of the last run equal the counted ones."""
    root = query.options.tracer.last_root
    assert root.total("pairs") == query.engine.last_stats.pairs_examined


def check_cached_equals_cold(trace_map, pattern, *, traced):
    snap = make_store(trace_map).snapshot()
    uncached = Query(pattern)
    cold = uncached.run(snap)

    cache = QueryCache()
    query = Query(pattern, engine_options(cache, traced))
    first = query.run(snap)
    assert query.last_cache_layer is None
    # the cache adds a probe to a cold run, nothing to the kernel's work
    assert query.engine.last_stats == uncached.engine.last_stats
    if traced:
        assert_pairs_reconcile(query)
    second = query.run(snap)

    assert query.last_cache_layer == "result"
    assert rows(first) == rows(cold)
    assert rows(second) == rows(cold)
    assert cache.stats()["result_hits"] >= 1


def check_appends_are_evaluated_as_a_delta(trace_map, pattern, appends, optimize, *, traced):
    store = make_store(trace_map)
    cache = QueryCache()
    query = Query(
        pattern,
        EngineOptions(cache=cache, tracer=Tracer() if traced else None, optimize=optimize),
    )
    query.run(store.snapshot())

    for wid, activity in appends:
        if wid not in trace_map:
            store.open_instance(wid)
            trace_map[wid] = []
        store.append(wid=wid, activity=activity)
        trace_map[wid].append(activity)

    snap = store.snapshot()
    if traced:  # a fresh tracer, as the engine's root span merges across runs
        query = Query(
            pattern, EngineOptions(cache=cache, tracer=Tracer(), optimize=optimize)
        )
    warm = query.run(snap)
    # the stale entry does not serve: it is what the evaluation starts from
    assert query.last_cache_layer == "delta"
    if traced:
        assert_pairs_reconcile(query)
    assert rows(warm) == rows(Query(pattern).run(snap))
    if not optimize:
        # the joins done are those of the instances appended to
        touched = Query(pattern, EngineOptions(optimize=False))
        touched.run(snap.project({wid for wid, _ in appends}))
        assert query.engine.last_stats == touched.engine.last_stats
    # and the fresh entry now serves
    again = query.run(snap)
    assert query.last_cache_layer == "result"
    assert rows(again) == rows(warm)


APPENDS = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),
        st.sampled_from(ALPHABET + ("Z",)),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(traces(), patterns())
def test_cached_equals_cold_serial(trace_map, pattern):
    check_cached_equals_cold(trace_map, pattern, traced=False)


@settings(max_examples=25, deadline=None)
@given(traces(), patterns(), APPENDS, st.booleans())
def test_appends_are_evaluated_as_a_delta_equal_to_cold(
    trace_map, pattern, appends, optimize
):
    check_appends_are_evaluated_as_a_delta(
        trace_map, pattern, appends, optimize, traced=False
    )


# -- the same two properties under a live tracer -------------------------------


@settings(max_examples=40, deadline=None)
@given(traces(), patterns())
def test_traced_cached_equals_cold_serial(trace_map, pattern):
    check_cached_equals_cold(trace_map, pattern, traced=True)


@settings(max_examples=25, deadline=None)
@given(traces(), patterns(), APPENDS, st.booleans())
def test_traced_appends_are_evaluated_as_a_delta_equal_to_cold(
    trace_map, pattern, appends, optimize
):
    check_appends_are_evaluated_as_a_delta(
        trace_map, pattern, appends, optimize, traced=True
    )


@pytest.mark.parametrize("max_pairs", [1, 4, 12])
def test_governor_kill_on_a_cold_memo_reports_the_unmemoised_stats(max_pairs):
    """A miss adds nothing to the accounting: killed at the same
    checkpoint, the run with a cache attached has done what the one with
    none has.  (The test id predates the memo layer's removal.)"""
    snap = make_store(
        {wid: ["A", "B", "A", "C", "B"] for wid in range(1, 9)}
    ).snapshot()
    partial = []
    for cache in (None, QueryCache()):
        query = Query(
            "(A -> B) -> (C | B)", EngineOptions(cache=cache, max_pairs=max_pairs)
        )
        with pytest.raises(QueryBudgetExceeded) as info:
            query.run(snap)
        partial.append(info.value.partial_stats)
    assert partial[0] is not None and partial[0].pairs_examined > max_pairs
    assert partial[0] == partial[1]


class TestLayerIntegration:
    STORE = staticmethod(
        lambda: make_store(
            {wid: ["A", "B", "A", "C", "B"] for wid in range(1, 9)}
        )
    )

    def test_evaluate_batch_reuses_cached_results(self):
        snap = self.STORE().snapshot()
        cache = QueryCache()
        cold = Query.evaluate_batch(snap, ["A -> B", "A ; B"], EngineOptions(cache=cache))
        assert cold.cache_hits == 0
        warm = Query.evaluate_batch(snap, ["A -> B", "B | C"], EngineOptions(cache=cache))
        assert warm.cache_hits == 1  # "A -> B" served without re-evaluation
        assert warm.results[0].to_rows() == cold.results[0].to_rows()
