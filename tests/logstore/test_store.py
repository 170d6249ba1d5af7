"""Unit tests for the append-only LogStore."""

import sys
import threading
import time

import pytest

from repro.core.errors import LogStoreError
from repro.core.model import END, START
from repro.logstore.store import LogStore
from repro.obs.metrics import MetricsRegistry


class TestLifecycle:
    def test_open_writes_start(self):
        store = LogStore()
        wid = store.open_instance()
        assert wid == 1
        records = list(store)
        assert len(records) == 1
        assert records[0].activity == START and records[0].is_lsn == 1

    def test_close_writes_end_and_freezes(self):
        store = LogStore()
        wid = store.open_instance()
        store.close_instance(wid)
        assert not store.is_open(wid)
        with pytest.raises(LogStoreError):
            store.append(wid, "A")

    def test_explicit_wids_and_auto_assignment(self):
        store = LogStore()
        assert store.open_instance(5) == 5
        assert store.open_instance() == 6

    def test_duplicate_open_rejected(self):
        store = LogStore()
        store.open_instance(1)
        with pytest.raises(LogStoreError):
            store.open_instance(1)

    def test_invalid_wid_rejected(self):
        with pytest.raises(LogStoreError):
            LogStore().open_instance(0)

    def test_append_to_unknown_instance_rejected(self):
        with pytest.raises(LogStoreError):
            LogStore().append(9, "A")

    def test_sentinels_cannot_be_appended_manually(self):
        store = LogStore()
        wid = store.open_instance()
        with pytest.raises(LogStoreError):
            store.append(wid, START)
        with pytest.raises(LogStoreError):
            store.append(wid, END)


class TestSequenceNumbers:
    def test_global_lsn_is_arrival_order(self):
        store = LogStore()
        w1, w2 = store.open_instance(), store.open_instance()
        store.append(w2, "B")
        store.append(w1, "A")
        assert [r.lsn for r in store] == [1, 2, 3, 4]
        assert [(r.wid, r.activity) for r in store] == [
            (1, START), (2, START), (2, "B"), (1, "A"),
        ]

    def test_is_lsn_is_per_instance(self):
        store = LogStore()
        w1, w2 = store.open_instance(), store.open_instance()
        store.append(w1, "A")
        store.append(w2, "B")
        store.append(w1, "C")
        by_instance = [(r.wid, r.is_lsn) for r in store]
        assert by_instance == [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3)]


class TestSnapshots:
    def test_snapshot_is_well_formed(self):
        store = LogStore()
        wid = store.open_instance()
        store.append(wid, "A", attrs_out={"x": 1})
        store.close_instance(wid)
        log = store.snapshot()
        log.validate()
        assert [r.activity for r in log] == [START, "A", END]

    def test_snapshot_of_empty_store_rejected(self):
        with pytest.raises(LogStoreError):
            LogStore().snapshot()

    def test_store_keeps_appending_after_snapshot(self):
        store = LogStore()
        wid = store.open_instance()
        before = store.snapshot()
        store.append(wid, "A")
        assert len(store.snapshot()) == len(before) + 1

    def test_one_snapshot_object_per_epoch(self):
        store = LogStore()
        steps = [
            lambda: store.open_instance(1),
            lambda: store.append(1, "A"),
            lambda: store.close_instance(1),
        ]
        for step in steps:
            before = store.snapshot() if len(store) else None
            step()
            after = store.snapshot()
            assert after is store.snapshot()
            assert after is not before
            assert len(after) == after.epoch == store.epoch == len(store)
            assert after.records[-1] is store.tail(1)[0]
            after.validate()
        assert [r.activity for r in store.snapshot()] == [START, "A", END]

    def test_snapshot_builds_once_per_epoch_and_counts_every_call(self):
        metrics = MetricsRegistry()
        store = LogStore(metrics=metrics)
        wid = store.open_instance()
        for _ in range(3):
            store.snapshot()
        assert metrics.counter("logstore.snapshot_builds").value == 1
        assert metrics.counter("logstore.snapshots").value == 3
        store.append(wid, "A")
        store.columnar()  # builds the epoch's snapshot ...
        store.snapshot()  # ... which a later query reuses
        assert metrics.counter("logstore.snapshot_builds").value == 2
        assert metrics.counter("logstore.snapshots").value == 5

    def test_snapshot_epoch_names_its_records_under_a_concurrent_writer(self):
        """A log stamped *n* holding *n+1* records would file results
        under the wrong cache epoch; one capture yields both numbers.

        The writer keeps refilling small stores for half a second, so
        the readers take thousands of snapshots while appends land.
        """
        current = [LogStore()]
        current[0].open_instance()
        stop = threading.Event()
        torn: list[str] = []

        def write() -> None:
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:
                store = LogStore()
                wid = store.open_instance()
                current[0] = store
                while len(store) < 200:
                    store.append(wid, "A")
                    if len(store) % 7 == 0:
                        store.close_instance(wid)
                        wid = store.open_instance()
            stop.set()

        def read() -> None:
            while not stop.is_set():
                snap = current[0].snapshot()
                if len(snap) != snap.epoch or snap.records[-1].lsn != len(snap):
                    torn.append(f"{len(snap)} records at epoch {snap.epoch}")

        threads = [threading.Thread(target=write)]
        threads += [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert torn == []

    def test_tail(self):
        store = LogStore()
        wid = store.open_instance()
        for name in ("A", "B", "C"):
            store.append(wid, name)
        assert [r.activity for r in store.tail(2)] == ["B", "C"]
        assert store.tail(0) == ()
        with pytest.raises(ValueError):
            store.tail(-1)

    def test_open_instances_listing(self):
        store = LogStore()
        w1, w2 = store.open_instance(), store.open_instance()
        store.close_instance(w1)
        assert store.open_instances == (w2,)


class TestFromLog:
    def test_resume_appending_to_loaded_log(self, figure3_log):
        store = LogStore.from_log(figure3_log)
        # instance 3 of Figure 3 is unfinished: keep going
        store.append(3, "CheckIn")
        store.close_instance(3)
        log = store.snapshot()
        log.validate()
        assert log.is_complete(3)
        assert [r.activity for r in log.instance(3)] == [
            START, "GetRefer", "CheckIn", END,
        ]

    def test_closed_instances_stay_closed(self):
        store = LogStore()
        wid = store.open_instance()
        store.close_instance(wid)
        reloaded = LogStore.from_log(store.snapshot())
        with pytest.raises(LogStoreError):
            reloaded.append(wid, "A")

    def test_auto_wid_continues_after_loaded_instances(self, figure3_log):
        store = LogStore.from_log(figure3_log)
        assert store.open_instance() == 4
