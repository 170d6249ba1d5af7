"""QueryCache behaviour: epoch-keyed result identity, a pattern's
superseded epoch replaced on store, one byte budget with observable
evictions, and the ``cache.*`` metrics family."""

import sys
import threading

import pytest

from repro.cache import (
    CachePolicy,
    QueryCache,
    get_default_cache,
    incidents_nbytes,
    resolve_cache,
)
from repro.cache import manager
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
def _fresh_default_cache(monkeypatch):
    monkeypatch.setattr(manager, "_default_cache", None)


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


class TestSupersededEpochs:
    """A lineage only moves forward, so a pattern is held at one epoch,
    the newest stored: the cache of a store that takes appends is as
    large as a static one's."""

    def test_newer_epoch_replaces_the_patterns_older_entry(self):
        store = make_store({1: ["A", "B"]})
        other = make_store({1: ["A", "B"]}).snapshot()
        loose = Log.from_traces({1: ["A", "B"]})
        cache = QueryCache()
        old = store.snapshot()
        replaced, kept = (cache.result_key(old, parse(text)) for text in ("A -> B", "A"))
        bystanders = [cache.result_key(log, PATTERN) for log in (other, loose)]
        for key in [replaced, kept] + bystanders:
            assert cache.put_result(key, Query(PATTERN).run(old))

        store.append(wid=1, activity="C")
        new = store.snapshot()
        new_key = cache.result_key(new, PATTERN)
        assert cache.peek_base(new_key)[0] == old.epoch
        assert cache.put_result(new_key, Query(PATTERN).run(new))

        snapshot = cache.stats()
        # "A -> B" at the new epoch, "A" still at the old, the two bystanders
        assert snapshot["result_entries"] == 4
        assert snapshot["result_evictions"] == 0  # replaced, not evicted
        assert snapshot["result_bytes"] == sum(
            n for _, n in cache._results._entries.values()
        )
        assert cache.get_result(replaced) is None
        assert cache.peek_base(new_key) is None
        # another pattern, another lineage and a content-fingerprint
        # identity are untouched; the other pattern's entry is what its
        # next evaluation starts from
        for key in [kept, new_key] + bystanders:
            assert cache.get_result(key) is not None
        epoch, base = cache.peek_base(cache.result_key(new, parse("A")))
        assert epoch == old.epoch and base is cache.get_result(kept).incidents
        # looking at a base is neither a hit nor a miss
        assert cache.stats()["result_hits"] == snapshot["result_hits"] + 5
        assert cache.stats()["result_misses"] == snapshot["result_misses"] + 1

    def test_late_put_for_a_superseded_epoch_is_refused(self):
        store = make_store({1: ["A", "B"]})
        old = store.snapshot()
        store.append(wid=1, activity="B")
        new = store.snapshot()
        cache = QueryCache()
        assert cache.put_result(cache.result_key(new, PATTERN), Query(PATTERN).run(new))
        # a slow query over the old snapshot finishes after the append
        late_key = cache.result_key(old, PATTERN)
        assert cache.put_result(late_key, Query(PATTERN).run(old)) is False
        assert cache.get_result(late_key) is None
        assert cache.stats()["result_entries"] == 1
        # same epoch, another pattern: still welcome
        assert cache.put_result(cache.result_key(new, parse("A")), Query("A").run(new))

    def test_accounting_holds_per_pattern_under_a_writer_and_four_readers(self):
        """One writer advances epochs with put_result while four readers
        probe: the byte total always equals the live entries' charges,
        stays within budget, and no pattern is ever held twice or at an
        epoch older than the last one stored for it."""
        patterns = [parse(text) for text in ("A -> B", "A", "B", "A | B")]
        store = make_store({1: ["A", "B", "A", "B"]})
        result = Query(PATTERN).run(store.snapshot())
        budget = incidents_nbytes(result) * 3  # one short of an epoch's puts
        cache = QueryCache(CachePolicy(result_budget_bytes=budget))
        keys_lock = threading.Lock()
        recent_keys: list = []
        stored_at: dict = {}  # pattern component of the key -> epoch of its last put
        done = threading.Event()
        failures: list[str] = []

        def check_invariant():
            with cache._lock:
                held = dict(cache._results._entries)
                total = cache._results.total_bytes
            charges = sum(n for _, n in held.values())
            if total != charges:
                failures.append(f"result_bytes {total} != charges {charges}")
            if total > budget:
                failures.append(f"result_bytes {total} over budget {budget}")
            if len({slot[1] for slot in held}) != len(held):
                failures.append(f"a pattern is held twice: {sorted(map(str, held))}")

        def advance(count):
            store.append(wid=1, activity="A")
            snap = store.snapshot()
            keys = [cache.result_key(snap, p) for p in patterns[:count]]
            with keys_lock:
                recent_keys[:] = keys
            for key in keys:
                cache.put_result(key, result)
                stored_at[key[1]] = snap.epoch
                check_invariant()

        def writer():
            try:
                for _ in range(150):
                    advance(len(patterns))
                advance(1)
            finally:
                done.set()

        def reader():
            while not done.is_set():
                with keys_lock:
                    keys = list(recent_keys)
                for key in keys:
                    cache.get_result(key)
                    cache.peek_base(key)
                check_invariant()

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        held = {slot[1]: epoch for slot, ((epoch, _), _) in cache._results._entries.items()}
        assert 1 <= len(held) <= 3
        assert all(epoch == stored_at[pattern] for pattern, epoch in held.items())
        # the last put is held, at the store's epoch
        assert held[recent_keys[0][1]] == store.epoch
        assert cache.stats()["result_evictions"] > 0  # the budget was exercised


class TestSpanBackedEntries:
    """What a kernel result costs the cache and what it keeps alive."""

    STORE = staticmethod(
        lambda: make_store({wid: ["A", "B", "A", "C", "B"] for wid in range(1, 9)})
    )

    def test_the_charge_of_an_entry_is_the_same_before_and_after_hits(self):
        snap = self.STORE().snapshot()
        cache = QueryCache()
        fresh = Query(PATTERN).run(snap)
        expected = incidents_nbytes(Query(PATTERN).run(snap))
        key = cache.result_key(snap, PATTERN)
        assert cache.put_result(key, fresh)
        assert cache.stats()["result_bytes"] == expected
        for read in (len, lambda s: s.to_rows(), lambda s: s.to_rows(2), list, hash):
            hit = cache.get_result(key)
            read(hit.incidents)
            assert hit.incidents is fresh
            assert incidents_nbytes(hit.incidents) == expected
            assert cache.stats()["result_bytes"] == expected

    def test_spans_are_charged_below_the_objects_they_stand_for(self):
        from repro.core.incident import IncidentSet

        result = Query(PATTERN).run(self.STORE().snapshot())
        as_objects = IncidentSet(list(result))
        assert len(result) == len(as_objects) > 8
        assert 2 * incidents_nbytes(result) < incidents_nbytes(as_objects)

    def test_a_cached_result_does_not_keep_a_superseded_snapshot_alive(self):
        """Reference counts alone must free the old ``Log`` and its
        ``ColumnarLog`` once the store has moved on, whatever the cache
        still holds for the old epoch.  (Neither class takes weak
        references, so the test counts what the collector still sees
        allocated, with collection itself switched off.)"""
        import gc
        from collections import Counter

        from repro.columnar import ColumnarLog
        from repro.core.options import EngineOptions

        def allocated():
            return Counter(
                type(o).__name__ for o in gc.get_objects() if type(o) in (Log, ColumnarLog)
            )

        one_snapshot = Counter({"ColumnarLog": 1, "Log": 1})
        store = self.STORE()
        cache = QueryCache()
        options = EngineOptions(cache=cache)
        gc.collect()
        gc.disable()
        try:
            before = allocated()
            old = store.snapshot()
            rows = Query(PATTERN, options).run(old).to_rows()
            old_key = cache.result_key(old, PATTERN)
            assert allocated() == before + one_snapshot
            del old
            store.append(wid=1, activity="A")
            new = store.snapshot()  # the snapshot it replaces is gone
            assert allocated() == before + one_snapshot
            # the old epoch's entry is still there, and still readable
            assert cache.get_result(old_key).incidents.to_rows() == rows
            Query(PATTERN, options).run(new)  # the next put_result drops it
            assert cache.get_result(old_key) is None
            assert cache.stats()["result_entries"] == 1
        finally:
            gc.enable()


class TestDeletedOptions:
    """The memo layer's switches are gone, not accepted and ignored."""

    @pytest.mark.parametrize(
        "kwargs",
        [{"memo": False}, {"results": False}, {"memo_budget_bytes": 1024}],
    )
    def test_cache_policy_rejects_them(self, kwargs):
        with pytest.raises(TypeError):
            CachePolicy(**kwargs)

    def test_the_kernel_takes_no_cache(self):
        from repro.core.eval.vectorized import VectorizedEngine

        with pytest.raises(TypeError):
            VectorizedEngine(cache=QueryCache())

    def test_policy_has_one_field_and_stats_six_keys(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(CachePolicy)] == ["result_budget_bytes"]
        with pytest.raises(TypeError):
            CachePolicy(enabled=False)
        assert CachePolicy().with_budget(7).result_budget_bytes == 7
        assert sorted(QueryCache().stats()) == [
            "result_bytes",
            "result_entries",
            "result_evictions",
            "result_hits",
            "result_misses",
            "result_rejected",
        ]


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
        assert "repro_cache_memo" not in text


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

    def test_instances_pass_through(self):
        cache = QueryCache()
        assert resolve_cache(cache) is cache

    def test_garbage_is_rejected(self):
        with pytest.raises(TypeError):
            resolve_cache("yes please")
