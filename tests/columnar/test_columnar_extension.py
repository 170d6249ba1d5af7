"""The columns of an epoch are its predecessor's with the appended rows
spliced in.

``ColumnarLog.extended`` must build what ``ColumnarLog.from_log`` builds,
field by field, whatever the tail touches — a middle instance, a new wid
below the highest or a new activity name (the last two take the full
build) — and must share, not copy, the leaf spans of untouched windows.
"""

from __future__ import annotations

from contextlib import contextmanager

from hypothesis import given, settings

from repro.cache import QueryCache
from repro.columnar import ColumnarLog
from repro.core.model import Log
from repro.core.options import EngineOptions
from repro.core.query import Query
from repro.logstore import LogStore
from tests.support.histories import histories, play

FIELDS = (
    "_rows",
    "_lsn",
    "_act_id",
    "_wid_values",
    "_starts",
    "_act_names",
    "_act_index",
    "_act_rows",
)


def assert_same_columns(extended: ColumnarLog, log: Log) -> None:
    full = ColumnarLog.from_log(log)
    for name in FIELDS:
        assert getattr(extended, name) == getattr(full, name), name
    assert list(extended.wid_windows()) == list(full.wid_windows())
    for act_id in range(len(full.act_names)):
        assert extended.leaf_spans(act_id) == full.leaf_spans(act_id)


@contextmanager
def full_builds():
    """The logs ``ColumnarLog.from_log`` is entered with, while active."""
    entered: list[Log] = []
    real = ColumnarLog.from_log

    def recording(log):
        entered.append(log)
        return real(log)

    ColumnarLog.from_log = recording
    try:
        yield entered
    finally:
        ColumnarLog.from_log = real


@settings(max_examples=60, deadline=None)
@given(histories())
def test_columns_by_extension_are_from_logs(history):
    store = LogStore()
    play(store, history[0])
    previous = store.snapshot()
    columnar = previous.columnar()
    for number, operations in enumerate(history[1:]):
        # some activities have their leaf spans built before the append,
        # the others are built on the extended columns
        for act_id in range(len(columnar.act_names)):
            if (act_id + number) % 2:
                columnar.leaf_spans(act_id)
        touched = play(store, operations)
        with full_builds() as entered:
            snapshot = store.snapshot()
            extended = snapshot.columnar()  # built by snapshot() already
        if snapshot is previous:
            continue
        tail = snapshot.records[previous.epoch :]
        reinterned = bool(
            {r.activity for r in tail} - previous.activities
            or any(wid < previous.wids[-1] for wid in touched - set(previous.wids))
        )
        assert entered == ([snapshot] if reinterned else [])
        if not reinterned:
            for act_id, by_window in columnar._leaf_spans.items():
                for wi, wid in enumerate(previous.wids):
                    # the lists of untouched windows are shared, not copied
                    assert wid in touched or extended.leaf_spans(act_id)[wi] is by_window[wi]
        assert_same_columns(extended, snapshot)
        previous, columnar = snapshot, extended


def test_an_append_to_the_newest_instances_shares_every_other_index_array():
    store = LogStore()
    for _ in range(3):
        wid = store.open_instance()
        for activity in ("A", "B", "C"):
            store.append(wid, activity)
    old = store.snapshot().columnar()
    query = Query("A -> B -> C", EngineOptions(cache=QueryCache()))
    query.run(store.snapshot())
    old_spans = {aid: old.leaf_spans(aid) for aid in range(len(old.act_names))}
    store.append(3, "A")
    new_wid = store.open_instance()
    store.append(new_wid, "A")
    new = store.snapshot().columnar()
    names = new.act_names
    for aid, name in enumerate(names):
        if name in ("A", "START"):
            assert list(new.act_rows(aid))[: len(old.act_rows(aid))] == list(old.act_rows(aid))
        else:  # nothing of B, C in the tail: the very same array
            assert new.act_rows(aid) is old.act_rows(aid)
        for wi in range(2):  # instances 1 and 2 got nothing
            assert new.leaf_spans(aid)[wi] is old_spans[aid][wi]
    assert new.wids == (1, 2, 3, 4) and len(new) == len(old) + 3
    # the cached chain's next run joins the two instances appended to and
    # nothing else: one join per binary node per instance
    query.run(store.snapshot())
    assert query.last_cache_layer == "delta"
    assert query.engine.last_stats.operator_evals == 2 * 2
