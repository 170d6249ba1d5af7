"""Append-only log store.

:class:`LogStore` owns the sequence-number bookkeeping of Definition 2:
it assigns global ``lsn`` values in arrival order, per-instance ``is_lsn``
values consecutively, writes the ``START`` sentinel when an instance is
opened and the ``END`` sentinel when it is closed, and refuses appends to
closed instances.  Logs snapshotted from a store are therefore well-formed
by construction.

Example
-------
>>> store = LogStore()
>>> w = store.open_instance()
>>> _ = store.append(w, "GetRefer", attrs_out={"balance": 1000})
>>> _ = store.append(w, "CheckIn", attrs_in={"balance": 1000})
>>> store.close_instance(w)
>>> [r.activity for r in store.snapshot()]
['START', 'GetRefer', 'CheckIn', 'END']
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator
from uuid import uuid4

from repro.core.errors import LogStoreError
from repro.core.model import END, START, AttrMap, Log, LogRecord
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry

__all__ = ["LogStore"]

logger = get_logger("logstore.store")


class LogStore:
    """In-memory append-only workflow log.

    The store is the write-side companion of the read-only
    :class:`~repro.core.model.Log`: workflow engines (or adapters tailing
    a real system) push records in, queries run over snapshots.

    Parameters
    ----------
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving the
        ``logstore.*`` counter family (records appended, instances
        opened/closed, snapshots taken and built).
    """

    def __init__(self, *, metrics: MetricsRegistry | None = None) -> None:
        self._records: list[LogRecord] = []
        self._next_is_lsn: dict[int, int] = {}
        self._closed: set[int] = set()
        self._next_wid = 1
        self._lineage = f"logstore:{uuid4().hex}"
        self._snapshot: Log | None = None
        self._snapshot_lock = threading.Lock()
        self.metrics = metrics

    @property
    def epoch(self) -> int:
        """Append epoch: the number of records appended so far (sentinels
        included).  Snapshots are stamped with the epoch they were taken
        at, which is what lets the :mod:`repro.cache` result cache
        invalidate precisely on appends."""
        return len(self._records)

    @property
    def lineage(self) -> str:
        """Unique identity token of this store instance.  Two snapshots
        share cache state only when their lineage matches."""
        return self._lineage

    # -- instance lifecycle ----------------------------------------------

    def open_instance(self, wid: int | None = None) -> int:
        """Start a new workflow instance and write its ``START`` record.

        Returns the instance id (auto-assigned when ``wid`` is None).
        """
        (record,) = self.append_batch([(wid, START, None, None)])
        logger.debug("opened instance %d", record.wid)
        return record.wid

    def close_instance(self, wid: int) -> LogRecord:
        """Write the instance's ``END`` record; further appends fail."""
        (record,) = self.append_batch([(wid, END, None, None)])
        logger.debug("closed instance %d at lsn %d", wid, record.lsn)
        return record

    # -- appending ---------------------------------------------------------

    def append(
        self,
        wid: int,
        activity: str,
        *,
        attrs_in: AttrMap | None = None,
        attrs_out: AttrMap | None = None,
    ) -> LogRecord:
        """Record the execution of ``activity`` in instance ``wid``."""
        if activity in (START, END):
            raise LogStoreError(
                f"{activity} records are written by open/close_instance"
            )
        (record,) = self.append_batch([(wid, activity, attrs_in, attrs_out)])
        return record

    def append_batch(
        self,
        operations: Iterable[tuple[int | None, str, AttrMap | None, AttrMap | None]],
    ) -> list[LogRecord]:
        """Append ``(wid, activity, attrs_in, attrs_out)`` operations as one
        step: all of them, or none if any breaks a rule.

        ``START`` opens ``wid`` (the next free id when None), ``END``
        closes it, anything else is an activity of an open instance.  The
        whole batch is checked against the store's state and its own
        earlier operations before the store changes; the records then
        land in one ``list.extend``, so the epoch moves once and a
        snapshot holds all of the batch or none of it.
        """
        next_is_lsn: dict[int, int] = {}
        closed: set[int] = set()
        next_wid = self._next_wid
        records: list[LogRecord] = []
        for wid, activity, attrs_in, attrs_out in operations:
            if activity == START:
                if wid is None:
                    wid = next_wid
                if wid in next_is_lsn or wid in self._next_is_lsn:
                    raise LogStoreError(f"instance {wid} is already open")
                if wid < 1:
                    raise LogStoreError("wid must be a positive integer")
                next_wid = max(next_wid, wid + 1)
                is_lsn = 1
            else:
                is_lsn = next_is_lsn.get(wid) or self._next_is_lsn.get(wid)
                if is_lsn is None:
                    raise LogStoreError(
                        f"unknown instance {wid}; call open_instance first"
                    )
                if wid in closed or wid in self._closed:
                    raise LogStoreError(f"instance {wid} is closed")
                if activity == END:
                    closed.add(wid)
            records.append(
                LogRecord(
                    lsn=len(self._records) + len(records) + 1,
                    wid=wid,
                    is_lsn=is_lsn,
                    activity=activity,
                    attrs_in=attrs_in,
                    attrs_out=attrs_out,
                )
            )
            next_is_lsn[wid] = is_lsn + 1
        self._records.extend(records)
        self._next_is_lsn.update(next_is_lsn)
        self._closed |= closed
        self._next_wid = next_wid
        if self.metrics is not None:
            counter = self.metrics.counter
            counter("logstore.records_appended").inc(len(records))
            counter("logstore.instances_opened").inc(sum(r.is_start for r in records))
            counter("logstore.instances_closed").inc(len(closed))
        return records

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    @property
    def open_instances(self) -> tuple[int, ...]:
        """Instance ids that are open (no ``END`` yet)."""
        return tuple(sorted(set(self._next_is_lsn) - self._closed))

    def snapshot(self) -> Log:
        """An immutable, validated :class:`~repro.core.model.Log` of the
        current contents.  Queries run over snapshots; the store can keep
        appending afterwards.

        The log is built once per epoch: every call until the next
        append returns the same object.  The first one is built from, and
        checked against Definition 2 over, every record; each later one
        extends its predecessor by the records appended since
        (:meth:`Log.extended <repro.core.model.Log.extended>`).
        """
        if not self._records:
            raise LogStoreError("cannot snapshot an empty store")
        if self.metrics is not None:
            self.metrics.counter("logstore.snapshots").inc()
        with self._snapshot_lock:
            cached = self._snapshot
            if cached is None or cached.epoch != len(self._records):
                if self.metrics is not None:
                    self.metrics.counter("logstore.snapshot_builds").inc()
                # Either way one atomic capture: the epoch stamped on the
                # log is the count of the very records it holds, whatever
                # appends land while they are being validated.
                if cached is None:
                    records = tuple(self._records)
                    cached = Log(
                        records,
                        epoch=len(records),
                        lineage=self._lineage,
                        snapshot=True,
                    )
                else:
                    previous = cached
                    cached = previous.extended(self._records[previous.epoch :])
                    # megabytes per epoch: not left to the cycle collector
                    previous.forget_columnar()
                logger.debug("snapshot: built epoch %d", cached.epoch)
                self._snapshot = cached
        return cached

    def wid_record_counts(self) -> dict[int, int]:
        """Per-instance record counts, in one pass over the store.

        Deliberately avoids building a full :meth:`snapshot` first (the
        service's ``/v1/logs`` listing reads it).
        """
        counts: dict[int, int] = {}
        for record in self._records:
            counts[record.wid] = counts.get(record.wid, 0) + 1
        return counts

    @classmethod
    def from_log(cls, log: Log) -> "LogStore":
        """Seed a store with an existing log's records (for appending to a
        loaded log)."""
        store = cls()
        store._records = list(log.records)
        for record in store._records:
            store._next_is_lsn[record.wid] = max(
                store._next_is_lsn.get(record.wid, 1), record.is_lsn + 1
            )
            if record.is_end:
                store._closed.add(record.wid)
            store._next_wid = max(store._next_wid, record.wid + 1)
        return store

    def __repr__(self) -> str:
        return (
            f"LogStore({len(self._records)} records, "
            f"{len(self._next_is_lsn)} instances, "
            f"{len(self.open_instances)} open)"
        )
