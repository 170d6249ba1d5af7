"""Immutable columnar representation of a workflow log: the log's index.

:class:`ColumnarLog` stores one :class:`~repro.core.model.Log` as its
records regrouped per instance, two integer columns, the instance
offsets and an activity index:

* ``rows`` — the record objects, ordered by ``(wid ascending, is_lsn
  ascending)``, so every workflow instance occupies one contiguous row
  range ``[starts[i], starts[i+1])`` (its *window*);
* ``lsn``, ``act_id`` — ``array('q')`` columns, one entry per row,
  exposed as read-only :class:`memoryview`\\ s; ``act_id`` holds the
  index of each row's activity in the *activity dictionary* (sorted
  distinct names);
* the *wid dictionary* (sorted distinct wids) and the offsets ``starts``;
  a row's instance is its window number and, in a well-formed log, its
  is-lsn is ``row - starts[i] + 1`` — no column holds either;
* the activity index — per ``act_id``, the join kernel's whole-log leaf
  list (:meth:`ColumnarLog.leaves`, built from the ``act_id`` column the
  first time it is asked for), whose rows clipped to a window answer
  Algorithm 2's per-(instance, activity) lookup, and the activity's
  number of rows (:meth:`ColumnarLog.act_total`).

A :class:`Log` builds its view when it is made and answers ``wids``,
``instance`` and ``is_complete`` off it; the view
holds no reference back to the log.  The engines take the log's
provenance (epoch, lineage) from the log they were handed.  The next
snapshot of a store gets its view from its predecessor's by
:meth:`ColumnarLog.extended`, and :meth:`ColumnarLog.from_log` is the one
full build.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, chain, compress, repeat
from operator import attrgetter, eq, itemgetter

from repro.core.model import Log, LogRecord

__all__ = ["ColumnarLog", "as_columnar"]


class ColumnarLog:
    """Columnar, interned view of one immutable log (see module docs);
    the engines accept a log or its view through :func:`as_columnar`.
    """

    __slots__ = (
        "_rows",
        "_lsn",
        "_act_id",
        "_wid_values",
        "_starts",
        "_act_names",
        "_act_index",
        "_act_totals",
        "_leaves",
        "_leaf_bases",
    )

    def __init__(self, *args, **kwargs):
        raise TypeError(
            "use ColumnarLog.from_log(log) (or log.columnar()) instead of "
            "constructing ColumnarLog directly"
        )

    # -- construction --------------------------------------------------------

    @classmethod
    def from_log(cls, log: Log) -> "ColumnarLog":
        """The columnar form of ``log``, built from its records: the one
        full build (a :class:`Log` makes it when it is made; use
        ``log.columnar()``)."""
        # Rows grouped per instance: (wid asc, is_lsn asc).  The sort is
        # stable and the records come in lsn order, and within one wid
        # is_lsn order equals lsn order (Definition 2, condition 3), so
        # each instance window is ascending in every column.
        rows = tuple(sorted(log.records, key=_wid_of))
        per_wid = Counter(map(_wid_of, rows))  # counted in ascending wid order
        starts = array("q", [0])
        starts.extend(accumulate(per_wid.values()))

        activities = list(map(_activity_of, rows))
        act_names = tuple(sorted(set(activities)))
        act_index = {name: i for i, name in enumerate(act_names)}
        act_col = array("q", map(act_index.__getitem__, activities))
        totals = Counter(act_col)

        new = cls.__new__(cls)
        new._rows = rows
        new._lsn = array("q", map(_lsn_of, rows))
        new._act_id = act_col
        new._wid_values = array("q", per_wid)
        new._starts = starts
        new._act_names = act_names
        new._act_index = act_index
        new._act_totals = array("q", map(totals.__getitem__, range(len(act_names))))
        new._leaves = {}
        new._leaf_bases = {}
        return new

    def extended(self, log: Log, tail: Sequence[LogRecord]) -> "ColumnarLog":
        """The columnar form of ``log``, which is this view's log
        followed by ``tail`` (:meth:`Log.extended
        <repro.core.model.Log.extended>`), without a pass over the log.

        Each touched instance's new rows are spliced in after its window
        (a new instance's after the last window) by slice concatenation;
        the offsets behind the first splice move up by what went in before
        them, and the activity totals by the tail.  A leaf list this view
        has built (:meth:`leaves`) is the base of the new view's, with the
        first row of the first touched window: its incidents before that
        row are kept, by reference, the first time the new view is asked
        for it, and the rest is built then from the ``act_id`` column from
        that row on — no leaf list is copied or renumbered per epoch.

        A tail that re-interns a dictionary, an activity name this view
        has not seen or a new wid below the highest, changes the ids in
        every row and takes the full :meth:`from_log`.
        """
        act_index = self._act_index
        wid_values = self._wid_values
        windows = len(wid_values)
        by_wid: dict[int, list[LogRecord]] = {}
        for rec in tail:
            if rec.activity not in act_index:
                return ColumnarLog.from_log(log)
            by_wid.setdefault(rec.wid, []).append(rec)
        new_wids = array("q", [w for w in sorted(by_wid) if w > wid_values[-1]])
        # per touched instance, in row order: (wid id, old row its new
        # rows go before, the rows)
        splices: list[tuple[int, int, list[LogRecord]]] = []
        for w in sorted(by_wid.keys() - set(new_wids)):
            i = bisect_left(wid_values, w)
            if wid_values[i] != w:
                return ColumnarLog.from_log(log)
            splices.append((i, self._starts[i + 1], by_wid[w]))
        for i, w in enumerate(new_wids, start=windows):
            splices.append((i, len(self._rows), by_wid[w]))

        def spliced(out, column, inserts):
            """``column`` with ``inserts[k]`` put in before old row
            ``splices[k][1]``, accumulated in ``out``."""
            prev = 0
            for (_, at, _), insert in zip(splices, inserts):
                out += column[prev:at]
                out += insert
                prev = at
            out += column[prev:]
            return out

        def ints(value):
            return [array("q", [value(r) for r in recs]) for _, _, recs in splices]

        act_ids = ints(lambda r: act_index[r.activity])
        new = ColumnarLog.__new__(ColumnarLog)
        new._rows = tuple(spliced([], self._rows, [recs for _, _, recs in splices]))
        new._lsn = spliced(array("q"), self._lsn, ints(lambda r: r.lsn))
        new._act_id = spliced(array("q"), self._act_id, act_ids)
        new._wid_values = wid_values + new_wids
        new._act_names = self._act_names
        new._act_index = act_index
        new._act_totals = totals = array("q", self._act_totals)
        for aid in chain.from_iterable(act_ids):
            totals[aid] += 1

        # a window ends later by what it and the windows before it grew
        starts = array("q", self._starts)
        grown = {i: len(recs) for i, _, recs in splices if i < windows}
        shift = 0
        for i in range(min(grown, default=windows), windows):
            shift += grown.get(i, 0)
            starts[i + 1] += shift
        for _, _, recs in splices[len(grown) :]:
            starts.append(starts[-1] + len(recs))
        new._starts = starts

        # a leaf list is unchanged before the first touched window (masks
        # are window-relative and rows move only behind it): the next
        # leaves() of the activity keeps that part and builds the rest
        redo = self._starts[splices[0][0]] if splices else len(self._rows)
        new._leaves = {}
        new._leaf_bases = {
            aid: (spans, counts, min(since, redo))
            for aid, (spans, counts, since) in [
                *self._leaf_bases.items(),  # queries change both: copy them first
                *((aid, (*leaves, redo)) for aid, leaves in list(self._leaves.items())),
            ]
        }
        return new

    # -- instances and rows ----------------------------------------------------

    @property
    def wids(self) -> tuple[int, ...]:
        """All workflow instance ids, sorted ascending."""
        return tuple(self._wid_values)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._rows)

    def __repr__(self) -> str:
        return (
            f"ColumnarLog({len(self._rows)} rows, "
            f"{len(self._wid_values)} instances, "
            f"{len(self._act_names)} activities, {8 * 2 * len(self._rows)} column bytes)"
        )

    # -- columns -------------------------------------------------------------

    @property
    def rows(self) -> tuple[LogRecord, ...]:
        """The record objects in row order (wid asc, is_lsn asc)."""
        return self._rows

    @property
    def lsn_col(self) -> memoryview:
        """Read-only ``lsn`` column (row order: wid asc, is_lsn asc)."""
        return memoryview(self._lsn).toreadonly()

    @property
    def act_id_col(self) -> memoryview:
        """Read-only interned-activity column."""
        return memoryview(self._act_id).toreadonly()

    # -- dictionaries and indexes --------------------------------------------

    @property
    def act_names(self) -> tuple[str, ...]:
        """The interned activity dictionary (sorted ascending)."""
        return self._act_names

    def act_id_of(self, activity: str) -> int | None:
        """Interned id of ``activity``, or None when it never occurs."""
        return self._act_index.get(activity)

    def wid_windows(self) -> Iterator[tuple[int, int, int]]:
        """``(wid, lo, hi)`` per instance in wid order — the engines' scan
        loop, read straight off the offsets array (no per-wid bisect)."""
        starts = self._starts
        for i, wid in enumerate(self._wid_values):
            yield wid, starts[i], starts[i + 1]

    def window(self, wid_value: int) -> tuple[int, int, int]:
        """``(window number, lo, hi)`` of one instance; ``KeyError`` when
        the log has no such instance."""
        i = bisect_left(self._wid_values, wid_value)
        if i == len(self._wid_values) or self._wid_values[i] != wid_value:
            raise KeyError(wid_value)
        return i, self._starts[i], self._starts[i + 1]

    def act_total(self, act_id: int) -> int:
        """How many rows have activity ``act_id``."""
        return self._act_totals[act_id]

    def leaves(self, act_id: int) -> tuple[list[tuple[int, int, int]], array]:
        """The join kernel's leaf incidents of one activity over the whole
        log, and how many fall in each window.

        The incidents are ``(row, row, mask)`` in row order, ``mask`` an
        int with the bit ``row - lo`` of the row's window ``[lo, hi)``
        set; the counts are indexed by window number (the position of
        the wid in :attr:`wids`).  Both are built once per activity, from
        the ``act_id`` column, and cached (positive leaves become
        lookups); they are shared, so callers must treat them as
        immutable.
        """
        leaves = self._leaves.get(act_id)
        if leaves is None:
            windows = len(self._wid_values)
            spans, counts, since = self._leaf_bases.get(act_id, ([], array("q"), 0))
            spans = spans[: bisect_left(spans, since, key=_first)]
            counts = counts + array("q", bytes(8 * (windows - len(counts))))
            rows = compress(
                range(since, len(self._rows)), map(eq, self._act_id[since:], repeat(act_id))
            )
            spans += _leaf_list(rows, self._starts, counts)
            leaves = self._leaves[act_id] = (spans, counts)
            self._leaf_bases.pop(act_id, None)
        return leaves


def _leaf_list(rows: Iterable[int], starts: Sequence[int], counts: array | dict[int, int]) -> list:
    """``(row, row, 1 << (row - lo))`` for each of the ascending ``rows``,
    ``lo`` the first row of its window; writes the number of rows in each
    window met into ``counts``, by window number."""
    spans: list[tuple[int, int, int]] = []
    wi = -1
    lo = hi = mark = 0
    for row in rows:
        if row >= hi:
            if wi >= 0:
                counts[wi] = len(spans) - mark
            mark = len(spans)
            wi = bisect_right(starts, row, wi + 1) - 1
            lo, hi = starts[wi], starts[wi + 1]
        spans.append((row, row, 1 << (row - lo)))
    if wi >= 0:
        counts[wi] = len(spans) - mark
    return spans


_first = itemgetter(0)
_lsn_of = attrgetter("lsn")
_wid_of = attrgetter("wid")
_activity_of = attrgetter("activity")


def as_columnar(log: "Log | ColumnarLog") -> ColumnarLog:
    """``log`` as a :class:`ColumnarLog` — passes columnar views through,
    and takes an object log's own view (``Log.columnar()``)."""
    if isinstance(log, ColumnarLog):
        return log
    return log.columnar()
