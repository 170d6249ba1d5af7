"""Property: a cached evaluation is byte-for-byte identical to a cold
one — same incidents, same canonical order — also across store appends
(which must invalidate exactly the stale entries).

Each property also runs with a live tracer: the memo hook and the tracing
hook wrap the same compiled closure tree, and together they must yield
what neither does, with traced and counted pairs still reconciling.

Plus integration assertions for which layer serves which run: memo hits
across Query runs and ``evaluate_batch`` result-layer reuse.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import EngineOptions, IncidentSet, Query
from repro.cache import CachePolicy, QueryCache
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
    """The traced ``pairs`` of the last run equal the counted ones — memo
    hits skip both, everything that ran is in both."""
    root = query.options.tracer.last_root
    assert root.total("pairs") == query.engine.last_stats.pairs_examined


def check_cached_equals_cold(trace_map, pattern, *, traced):
    snap = make_store(trace_map).snapshot()
    cold = Query(pattern).run(snap)

    cache = QueryCache()
    query = Query(pattern, engine_options(cache, traced))
    first = query.run(snap)
    if traced:
        assert_pairs_reconcile(query)
    second = query.run(snap)

    assert query.last_cache_layer == "result"
    assert rows(first) == rows(cold)
    assert rows(second) == rows(cold)
    assert cache.stats()["result_hits"] >= 1


def check_appends_invalidate(trace_map, pattern, appends, *, traced):
    store = make_store(trace_map)
    cache = QueryCache()
    query = Query(pattern, engine_options(cache, traced))
    query.run(store.snapshot())

    for wid, activity in appends:
        if wid not in trace_map:
            store.open_instance(wid)
            trace_map[wid] = []
        store.append(wid=wid, activity=activity)
        trace_map[wid].append(activity)

    snap = store.snapshot()
    memo_hits = cache.stats()["memo_hits"]
    if traced:
        query.options.tracer.reset()
    warm = query.run(snap)
    assert query.last_cache_layer != "result"  # stale entry must not serve
    # a run served (in part) from the memo layer says so
    served_by_memo = cache.stats()["memo_hits"] > memo_hits
    assert (query.last_cache_layer == "memo") == served_by_memo
    if traced:
        assert_pairs_reconcile(query)
    cold = Query(pattern).run(snap)
    assert rows(warm) == rows(cold)
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
@given(traces(), patterns(), APPENDS)
def test_appends_invalidate_and_revalidate_correctly(
    trace_map, pattern, appends
):
    check_appends_invalidate(trace_map, pattern, appends, traced=False)


# -- the hooks compose: memo + trace on one closure tree ≡ neither ------------


@settings(max_examples=40, deadline=None)
@given(traces(), patterns())
def test_traced_cached_equals_cold_serial(trace_map, pattern):
    check_cached_equals_cold(trace_map, pattern, traced=True)


@settings(max_examples=25, deadline=None)
@given(traces(), patterns(), APPENDS)
def test_traced_appends_invalidate_and_revalidate_correctly(
    trace_map, pattern, appends
):
    check_appends_invalidate(trace_map, pattern, appends, traced=True)


@pytest.mark.parametrize("max_pairs", [1, 4, 12])
def test_governor_kill_on_a_cold_memo_reports_the_unmemoised_stats(max_pairs):
    """A miss adds nothing to the accounting: killed at the same
    checkpoint, the memo-backed kernel has done what the plain one has."""
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

    def test_memo_layer_serves_a_fresh_query_on_an_updated_log(self):
        store = self.STORE()
        cache = QueryCache(CachePolicy(results=False))  # isolate the memo layer
        query = Query("A -> B", EngineOptions(cache=cache))
        query.run(store.snapshot())
        assert query.last_cache_layer is None  # cold

        store.open_instance(99)
        store.append(wid=99, activity="A")
        warm = query.run(store.snapshot())
        # every pre-existing wid is served from the memo layer
        assert query.last_cache_layer == "memo"
        assert cache.stats()["memo_hits"] > 0
        cold = Query("A -> B").run(store.snapshot())
        assert warm.to_rows() == cold.to_rows()

    def test_memo_hits_cross_query_objects(self):
        snap = self.STORE().snapshot()
        cache = QueryCache(CachePolicy(results=False))
        Query("A -> B", EngineOptions(cache=cache)).run(snap)
        other = Query("(A -> B) | C", EngineOptions(cache=cache))
        other.run(snap)
        # the shared A, B and A -> B sub-scans come from the memo layer
        assert other.last_cache_layer == "memo"

    def test_evaluate_batch_reuses_cached_results(self):
        snap = self.STORE().snapshot()
        cache = QueryCache()
        cold = Query.evaluate_batch(snap, ["A -> B", "A ; B"], cache=cache)
        assert cold.cache_hits == 0
        warm = Query.evaluate_batch(snap, ["A -> B", "B | C"], cache=cache)
        assert warm.cache_hits == 1  # "A -> B" served without re-evaluation
        assert warm.results[0].to_rows() == cold.results[0].to_rows()
