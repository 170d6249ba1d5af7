"""Standalone log indices.

:class:`~repro.core.model.Log` carries the simple per-activity and
per-instance indices Algorithm 2 needs; :class:`LogIndex` is the richer,
incrementally maintainable structure a long-running service keeps next to
an append-only store: positions per (wid, activity), first/last occurrence
maps, and adjacency (directly-follows) lookups used by the consecutive
operator and by analytics.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from time import perf_counter

from repro.core.model import Log, LogRecord
from repro.core.view import LogView
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry

__all__ = ["LogIndex"]

logger = get_logger("logstore.index")


class LogIndex:
    """Incremental index over log records.

    Maintains, per workflow instance:

    * ``positions(wid, activity)`` — sorted is-lsn positions of an
      activity (answers atomic patterns in output time);
    * ``record_at(wid, is_lsn)`` — direct record access (answers the
      consecutive operator's ``last+1`` probe in O(1));
    * occurrence counts for cardinality estimation.

    Records must be added in ascending ``lsn`` order.  An optional
    ``metrics`` registry receives the ``index.*`` family (records added,
    bulk-build seconds, instance/activity gauges).
    """

    def __init__(
        self,
        records: Iterable[LogRecord] = (),
        *,
        metrics: MetricsRegistry | None = None,
    ):
        self._positions: dict[tuple[int, str], list[int]] = {}
        self._by_pos: dict[tuple[int, int], LogRecord] = {}
        self._instance_len: dict[int, int] = {}
        self._count: dict[str, int] = {}
        self._last_lsn = 0
        self.metrics = metrics
        started = perf_counter()
        added = 0
        for record in records:
            self.add(record)
            added += 1
        if added and metrics is not None:
            metrics.histogram("index.build_seconds").observe(perf_counter() - started)
        if added:
            logger.debug(
                "built index over %d records in %.3fms",
                added,
                (perf_counter() - started) * 1e3,
            )

    @classmethod
    def from_log(
        cls, log: Log, *, metrics: MetricsRegistry | None = None
    ) -> "LogIndex":
        return cls(log.records, metrics=metrics)

    @classmethod
    def from_view(
        cls, view: LogView, *, metrics: MetricsRegistry | None = None
    ) -> "LogIndex":
        """Build from any :class:`~repro.core.view.LogView` — the
        object-row :class:`~repro.core.model.Log`, a
        :class:`~repro.columnar.ColumnarLog`, or any other implementation
        of the read protocol.  ``records()`` is lsn-ordered by contract,
        which is exactly the arrival order :meth:`add` requires."""
        return cls(view.records(), metrics=metrics)

    def add(self, record: LogRecord) -> None:
        """Index one record (must arrive in ascending lsn order)."""
        if record.lsn <= self._last_lsn:
            raise ValueError(
                f"records must be added in ascending lsn order "
                f"(got {record.lsn} after {self._last_lsn})"
            )
        self._last_lsn = record.lsn
        self._positions.setdefault((record.wid, record.activity), []).append(
            record.is_lsn
        )
        self._by_pos[(record.wid, record.is_lsn)] = record
        self._instance_len[record.wid] = max(
            self._instance_len.get(record.wid, 0), record.is_lsn
        )
        self._count[record.activity] = self._count.get(record.activity, 0) + 1
        if self.metrics is not None:
            self.metrics.counter("index.records_added").inc()
            self.metrics.gauge("index.instances").set(len(self._instance_len))
            self.metrics.gauge("index.activities").set(len(self._count))

    # -- lookups -----------------------------------------------------------

    def positions(self, wid: int, activity: str) -> list[int]:
        """Sorted is-lsn positions of ``activity`` within ``wid``."""
        return list(self._positions.get((wid, activity), ()))

    def record_at(self, wid: int, is_lsn: int) -> LogRecord | None:
        """The record at a given instance position, if any."""
        return self._by_pos.get((wid, is_lsn))

    def first_occurrence(self, wid: int, activity: str) -> int | None:
        """Smallest is-lsn of ``activity`` in ``wid``, or None."""
        positions = self._positions.get((wid, activity))
        return positions[0] if positions else None

    def last_occurrence(self, wid: int, activity: str) -> int | None:
        """Largest is-lsn of ``activity`` in ``wid``, or None."""
        positions = self._positions.get((wid, activity))
        return positions[-1] if positions else None

    def occurrences_between(
        self, wid: int, activity: str, low: int, high: int
    ) -> list[int]:
        """Positions of ``activity`` in ``wid`` with ``low <= pos <= high``."""
        positions = self._positions.get((wid, activity), [])
        return positions[bisect_left(positions, low) : bisect_right(positions, high)]

    def directly_follows(self, wid: int, first: str, then: str) -> int:
        """Number of positions where ``then`` immediately follows
        ``first`` within instance ``wid``."""
        count = 0
        for position in self._positions.get((wid, first), ()):
            successor = self._by_pos.get((wid, position + 1))
            if successor is not None and successor.activity == then:
                count += 1
        return count

    def instance_length(self, wid: int) -> int:
        """Number of records of instance ``wid``."""
        return self._instance_len.get(wid, 0)

    def activity_count(self, activity: str) -> int:
        """Global occurrence count of ``activity``."""
        return self._count.get(activity, 0)

    @property
    def wids(self) -> tuple[int, ...]:
        return tuple(sorted(self._instance_len))

    @property
    def activities(self) -> frozenset[str]:
        return frozenset(self._count)

    def __len__(self) -> int:
        return sum(self._instance_len.values())

    def __repr__(self) -> str:
        return (
            f"LogIndex({len(self)} records, {len(self._instance_len)} instances, "
            f"{len(self._count)} activities)"
        )
