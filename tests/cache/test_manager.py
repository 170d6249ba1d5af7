"""QueryCache behaviour: epoch-keyed result identity, memo wid-locality
across appends, byte budgets with observable evictions, and the
``cache.*`` metrics family."""

import pytest

from repro.cache import (
    CachePolicy,
    QueryCache,
    get_default_cache,
    incidents_nbytes,
    reset_default_cache,
    resolve_cache,
)
from repro.core.model import Log
from repro.core.parser import parse
from repro.core.query import Query
from repro.logstore.store import LogStore
from repro.obs.metrics import MetricsRegistry

PATTERN = parse("A -> B")


def make_store(traces):
    store = LogStore()
    for wid, activities in traces.items():
        store.open_instance(wid)
        for activity in activities:
            store.append(wid=wid, activity=activity)
    return store


@pytest.fixture(autouse=True)
def _fresh_default_cache():
    reset_default_cache()
    yield
    reset_default_cache()


class TestLogIdentity:
    def test_snapshot_identity_is_lineage_and_epoch(self):
        store = make_store({1: ["A", "B"]})
        snap = store.snapshot()
        kind, lineage, epoch = QueryCache.log_identity(snap)
        assert kind == "lineage"
        assert lineage == store.lineage
        assert epoch == str(store.epoch)

    def test_live_store_and_its_snapshot_share_identity(self):
        store = make_store({1: ["A", "B"]})
        assert QueryCache.log_identity(store) == QueryCache.log_identity(
            store.snapshot()
        )

    def test_append_changes_identity(self):
        store = make_store({1: ["A", "B"]})
        before = QueryCache.log_identity(store.snapshot())
        store.append(wid=1, activity="C")
        after = QueryCache.log_identity(store.snapshot())
        assert before != after

    def test_storeless_log_falls_back_to_content_fingerprint(self):
        log = Log.from_traces({1: ["A", "B"]})
        kind, fingerprint = QueryCache.log_identity(log)
        assert kind == "content"
        same = Log.from_traces({1: ["A", "B"]})
        assert QueryCache.log_identity(same) == (kind, fingerprint)
        different = Log.from_traces({1: ["A", "C"]})
        assert QueryCache.log_identity(different) != (kind, fingerprint)

    def test_two_stores_with_equal_content_do_not_collide(self):
        a = make_store({1: ["A", "B"]}).snapshot()
        b = make_store({1: ["A", "B"]}).snapshot()
        assert QueryCache.log_identity(a) != QueryCache.log_identity(b)


class TestResultLayer:
    def test_round_trip_and_epoch_invalidation(self):
        store = make_store({1: ["A", "B"], 2: ["A"]})
        snap = store.snapshot()
        cache = QueryCache()
        key = cache.result_key(snap, PATTERN)
        assert cache.get_result(key) is None

        result = Query(PATTERN).run(snap)
        cache.put_result(key, result)
        hit = cache.get_result(key)
        assert hit is not None
        assert hit.incidents == result

        store.append(wid=2, activity="B")
        stale_key = cache.result_key(store.snapshot(), PATTERN)
        assert stale_key != key
        assert cache.get_result(stale_key) is None

    def test_algebraically_equal_patterns_share_an_entry(self):
        snap = make_store({1: ["A", "B", "C"]}).snapshot()
        cache = QueryCache()
        # ⊗ is commutative (Theorem 2): both spellings normalize alike
        key_ab = cache.result_key(snap, parse("A | B"))
        key_ba = cache.result_key(snap, parse("B | A"))
        assert key_ab == key_ba

    def test_max_incidents_is_part_of_the_key(self):
        snap = make_store({1: ["A", "B"]}).snapshot()
        cache = QueryCache()
        assert cache.result_key(snap, PATTERN) != cache.result_key(
            snap, PATTERN, max_incidents=10
        )

    def test_hits_hand_out_detached_stats_copies(self):
        snap = make_store({1: ["A", "B"]}).snapshot()
        cache = QueryCache()
        query = Query(PATTERN)
        result = query.run(snap)
        key = cache.result_key(snap, PATTERN)
        cache.put_result(key, result, query.engine.last_stats)
        first = cache.get_result(key).stats
        first.operator_evals += 1000
        second = cache.get_result(key).stats
        assert second.operator_evals != first.operator_evals
        assert second.registry is None

    def test_budget_forces_lru_eviction_of_results(self):
        snap = make_store({1: ["A", "B", "A", "B"]}).snapshot()
        result = Query(PATTERN).run(snap)
        entry_bytes = incidents_nbytes(result)
        cache = QueryCache(CachePolicy(result_budget_bytes=entry_bytes * 2))
        keys = [
            cache.result_key(snap, PATTERN, max_incidents=budget)
            for budget in (100, 200, 300)
        ]
        for key in keys:
            cache.put_result(key, result)
        snapshot = cache.stats()
        assert snapshot["result_evictions"] >= 1
        assert snapshot["result_bytes"] <= entry_bytes * 2
        assert cache.get_result(keys[0]) is None  # coldest entry evicted
        assert cache.get_result(keys[2]) is not None


class TestMemoLayer:
    def test_entries_survive_appends_to_other_instances(self):
        store = make_store({1: ["A", "B"], 2: ["A", "B"]})
        snap = store.snapshot()
        cache = QueryCache()
        scope = QueryCache.memo_scope(snap)
        # what the kernel memoises: (first, last, is-lsn positions) tuples
        incidents = ((1, 2, frozenset({1, 2})),)
        cache.memo_put(scope, 1, 2, PATTERN, incidents)

        store.append(wid=2, activity="C")
        later = store.snapshot()
        # same lineage, same wid record count -> still valid and served
        assert QueryCache.memo_scope(later) == scope
        assert cache.memo_get(scope, 1, 2, PATTERN) == incidents
        # the touched instance has a new record count -> miss
        assert cache.memo_get(scope, 2, 3, PATTERN) is None

    def test_disabled_memo_layer_serves_nothing(self):
        cache = QueryCache(CachePolicy(memo=False))
        assert not cache.memo_put(("lineage", "x"), 1, 2, PATTERN, ())
        assert cache.memo_get(("lineage", "x"), 1, 2, PATTERN) is None


class TestMetrics:
    def test_cache_counters_reach_prometheus(self):
        registry = MetricsRegistry()
        cache = QueryCache(metrics=registry)
        snap = make_store({1: ["A", "B"]}).snapshot()
        key = cache.result_key(snap, PATTERN)
        cache.get_result(key)  # miss
        cache.put_result(key, Query(PATTERN).run(snap))
        cache.get_result(key)  # hit
        text = registry.to_prometheus()
        assert "repro_cache_result_hits 1" in text
        assert "repro_cache_result_misses 1" in text
        assert "repro_cache_result_entries 1" in text
        assert "repro_cache_result_evictions 0" in text


class TestResolveCache:
    def test_none_and_false_mean_off(self):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None

    def test_true_resolves_to_the_shared_default(self):
        assert resolve_cache(True) is resolve_cache(True)
        assert resolve_cache(True) is get_default_cache()

    def test_policy_builds_a_private_cache(self):
        policy = CachePolicy(result_budget_bytes=1024)
        cache = resolve_cache(policy)
        assert isinstance(cache, QueryCache)
        assert cache.policy is policy
        assert resolve_cache(CachePolicy.disabled()) is None

    def test_instances_pass_through(self):
        cache = QueryCache()
        assert resolve_cache(cache) is cache

    def test_garbage_is_rejected(self):
        with pytest.raises(TypeError):
            resolve_cache("yes please")
