"""A cached kernel result is carried from epoch to epoch: the first run of
a pattern after an append joins only the instances appended to and keeps
every other instance's spans (``Query.last_cache_layer == "delta"``).

It must be the cold kernel's result and the Definition 4 oracle's, row
for row and in iteration order (a batch's positions too, with no more
pairs than a cold batch); a kill or a budget breach in such a run
must raise what a cold run raises and leave the cache as it was; and it
must hold with a writer and readers at work at once.
"""

from __future__ import annotations

import sys
import threading
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import EngineOptions, Query
from repro.cache import QueryCache
from repro.core.errors import BudgetExceededError, QueryBudgetExceeded
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.incident import reference_incidents
from repro.core.parser import parse
from repro.core.pattern import Atomic, Sequential
from repro.exec.batch import evaluate_batch
from repro.extensions.conditions import Guarded, attr
from repro.extensions.windows import Within
from repro.logstore import LogStore
from tests.support.histories import histories, play

#: every operator, a negated leaf, a windowed ``->[k]``, an
#: attribute-guarded leaf, and two spellings of one equivalence class
PATTERNS = (
    parse("A -> B"),
    parse("A ; B"),
    parse("(A | C) -> B"),
    parse("A & B"),
    parse("!A ; B"),
    parse("B | A"),
    parse("A | B"),
    Within(Atomic("A"), Atomic("B"), 2),
    parse("A -> B -> A"),
    Sequential(Guarded("A", False, attr("out.amount") >= 1), parse("B")),
)


@settings(max_examples=50, deadline=None)
@given(
    histories(max_epochs=4),
    st.lists(st.lists(st.integers(0, len(PATTERNS) - 1), max_size=4), min_size=4, max_size=4),
    st.lists(
        st.lists(st.integers(0, len(PATTERNS) - 1), min_size=1, max_size=4),
        min_size=4,
        max_size=4,
    ),
)
def test_delta_is_the_cold_kernel_and_the_oracle(history, asked, batches):
    store = LogStore()
    cache = QueryCache()
    options = EngineOptions(cache=cache)
    batch_options = EngineOptions(cache=QueryCache())  # batches keep their own entries
    held_at: dict = {}  # slot of a pattern -> epoch its entry is of
    for operations, indexes, batch in zip(history, asked, batches):
        play(store, operations)
        snapshot = store.snapshot()
        for index in indexes:  # several patterns, in whatever order was drawn
            pattern = PATTERNS[index]
            query = Query(pattern, options)
            got = query.run(snapshot)
            slot = cache.result_key(snapshot, pattern)[1:]
            expected = {None: None, snapshot.epoch: "result"}.get(held_at.get(slot), "delta")
            assert query.last_cache_layer == expected
            held_at[slot] = snapshot.epoch
            cold = VectorizedEngine().evaluate(snapshot, pattern)
            oracle = reference_incidents(snapshot, pattern)
            assert got.to_rows() == cold.to_rows() == oracle.to_rows()
            assert list(got) == list(oracle)
            assert len(got) == len(oracle) and got.wids() == oracle.wids()
        # a batch after the appends: positions held at an earlier epoch are
        # delta roots of its one pass, and it does no more work than cold
        patterns = [PATTERNS[index] for index in batch]
        warm = evaluate_batch(snapshot, patterns, batch_options)
        cold_batch = evaluate_batch(snapshot, patterns)
        assert [r.to_rows() for r in warm] == [r.to_rows() for r in cold_batch]
        assert warm.stats.pairs_examined <= cold_batch.stats.pairs_examined
    # one entry per distinct pattern asked, however many epochs went by
    assert cache.stats()["result_entries"] == len(held_at)


def grown_store(instances: int) -> LogStore:
    store = LogStore()
    for _ in range(instances):
        wid = store.open_instance()
        for activity in ("A", "B", "A", "B"):
            store.append(wid, activity)
    return store


class TestAKilledDeltaRun:
    """What a cold run raises, nothing stored, the base still there."""

    PATTERN = parse("A -> B")  # three incidents per instance

    def primed(self, **options):
        store = grown_store(3)
        cache = QueryCache()
        base = store.snapshot()
        Query(self.PATTERN, EngineOptions(cache=cache, **options)).run(base)
        key = cache.result_key(base, self.PATTERN, max_incidents=options.get("max_incidents"))
        for activity in ("A", "B", "A", "B"):
            store.append(3, activity)  # instance 3 now has ten incidents
        return store, cache, key, cache.stats()

    def assert_untouched(self, store, cache, key, before, **options):
        assert cache.stats() == {**before, "result_misses": before["result_misses"] + 1}
        new_key = cache.result_key(
            store.snapshot(), self.PATTERN, max_incidents=options.get("max_incidents")
        )
        epoch, base = cache.peek_base(new_key)
        assert epoch == int(key[0][2]) and len(base) == 9
        assert len(cache.get_result(key).incidents.to_rows()) == 9

    def test_max_incidents_bounds_the_merged_total(self):
        # 9 at the base, 16 after the append; the touched instance alone
        # has 10, under the cap, so only the total can trip it
        store, cache, key, before = self.primed(max_incidents=12)
        snapshot = store.snapshot()
        query = Query(self.PATTERN, EngineOptions(cache=cache, max_incidents=12))
        with pytest.raises(BudgetExceededError) as delta:
            query.run(snapshot)
        assert query.last_cache_layer == "delta"
        with pytest.raises(BudgetExceededError) as cold:
            Query(self.PATTERN, EngineOptions(max_incidents=12)).run(snapshot)
        assert type(delta.value) is type(cold.value) and delta.value.limit == cold.value.limit
        self.assert_untouched(store, cache, key, before, max_incidents=12)
        # one more instance's worth of room and the same run goes through
        roomy = Query(self.PATTERN, EngineOptions(cache=cache, max_incidents=16))
        assert len(roomy.run(snapshot)) == 16

    def test_a_governor_kill_raises_what_cold_raises(self):
        store, cache, key, before = self.primed()
        snapshot = store.snapshot()
        query = Query(self.PATTERN, EngineOptions(cache=cache, max_pairs=5))
        with pytest.raises(QueryBudgetExceeded) as delta:
            query.run(snapshot)
        assert query.last_cache_layer == "delta"
        with pytest.raises(QueryBudgetExceeded) as cold:
            Query(self.PATTERN, EngineOptions(max_pairs=5)).run(snapshot)
        assert delta.value.limit == cold.value.limit == 5
        # the delta run was killed in the one instance it joined
        assert delta.value.partial_stats.operator_evals == 1
        self.assert_untouched(store, cache, key, before)
        # and without the budget it completes, from the same base
        free = Query(self.PATTERN, EngineOptions(cache=cache))
        assert len(free.run(snapshot)) == 16 and free.last_cache_layer == "delta"


def test_a_writer_and_four_readers_agree_with_the_cold_kernel():
    store = grown_store(6)
    cache = QueryCache()
    options = EngineOptions(cache=cache)
    patterns = [parse(text) for text in ("A -> B", "A ; B", "B & A", "!A -> B")]
    for pattern in patterns:
        Query(pattern, options).run(store.snapshot())
    done = threading.Event()
    failures: list[str] = []
    layers: set = set()

    def writer():
        try:
            for step in range(120):
                if step % 3 == 0:
                    wid = store.open_instance()
                else:
                    wid = 1 + step % len(store.open_instances)
                store.append_batch(
                    [(wid, activity, None, None) for activity in ("B", "A", "B")]
                )
                time.sleep(0.002)  # a few reader runs per epoch
        finally:
            done.set()

    def reader(number: int):
        turn = number
        while not done.is_set():
            pattern = patterns[turn % len(patterns)]
            turn += 1
            snapshot = store.snapshot()
            query = Query(pattern, options)
            got = query.run(snapshot)
            layers.add(query.last_cache_layer)
            cold = VectorizedEngine().evaluate(snapshot, pattern)
            if got.to_rows() != cold.to_rows():
                failures.append(
                    f"{pattern} at epoch {snapshot.epoch} via {query.last_cache_layer}: "
                    f"{len(got)} incidents, cold {len(cold)}"
                )

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(number,)) for number in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert "delta" in layers
    # and the cache is left holding each pattern once
    assert cache.stats()["result_entries"] == len(patterns)
