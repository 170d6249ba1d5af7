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
* the activity index — ascending row numbers per ``act_id``, which
  clipped to a window (:meth:`ColumnarLog.act_rows`) answer Algorithm 2's
  per-(instance, activity) lookup.

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
from collections.abc import Iterator, Sequence
from itertools import accumulate
from operator import attrgetter

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
        "_act_rows",
        "_leaf_spans",
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
        act_rows: tuple[array, ...] = tuple(array("q") for _ in act_names)
        for row, aid in enumerate(act_col):
            act_rows[aid].append(row)

        new = cls.__new__(cls)
        new._rows = rows
        new._lsn = array("q", map(_lsn_of, rows))
        new._act_id = act_col
        new._wid_values = array("q", per_wid)
        new._starts = starts
        new._act_names = act_names
        new._act_index = act_index
        new._act_rows = act_rows
        new._leaf_spans = {}
        return new

    def extended(self, log: Log, tail: Sequence[LogRecord]) -> "ColumnarLog":
        """The columnar form of ``log``, which is this view's log
        followed by ``tail`` (:meth:`Log.extended
        <repro.core.model.Log.extended>`), without a pass over the log.

        Each touched instance's new rows are spliced in after its window
        (a new instance's after the last window) by slice concatenation;
        the offsets and the activity index behind the first splice move
        up by what went in before them, so an append to the newest
        instances costs the batch and one to an old instance a renumbering
        at ``map`` speed.  The row-number arrays of activities with no row
        behind the first splice, and the cached ``leaf_spans`` lists of
        every untouched window, are shared with this view.

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

        new = ColumnarLog.__new__(ColumnarLog)
        new._rows = tuple(spliced([], self._rows, [recs for _, _, recs in splices]))
        new._lsn = spliced(array("q"), self._lsn, ints(lambda r: r.lsn))
        new._act_id = spliced(array("q"), self._act_id, ints(lambda r: act_index[r.activity]))
        new._wid_values = wid_values + new_wids
        new._act_names = self._act_names
        new._act_index = act_index

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

        # an activity's rows keep their numbers up to the first splice and
        # move up behind it by what went in before them; the array of an
        # activity with no row from there on is shared
        cut = splices[0][1] if splices else len(self._rows)
        tail_ids = {act_index[rec.activity] for rec in tail}

        def renumbered(aid: int, rows: array) -> array:
            if aid not in tail_ids and not (rows and rows[-1] >= cut):
                return rows
            prev = bisect_left(rows, cut)
            out = rows[:prev]
            shift = 0
            for _, at, recs in splices:
                upto = bisect_left(rows, at, prev)
                out.extend(map(shift.__add__, rows[prev:upto]))
                out.extend(
                    [at + shift + k for k, r in enumerate(recs) if act_index[r.activity] == aid]
                )
                shift += len(recs)
                prev = upto
            out.extend(map(shift.__add__, rows[prev:]))
            return out

        new._act_rows = tuple(renumbered(aid, rows) for aid, rows in enumerate(self._act_rows))

        new._leaf_spans = {}
        for aid, by_window in list(self._leaf_spans.items()):  # queries add to it
            by_window = list(by_window)
            for i, _, recs in splices:
                added = [
                    (r.is_lsn, r.is_lsn, frozenset((r.is_lsn,)))
                    for r in recs
                    if act_index[r.activity] == aid
                ]
                if i == len(by_window):
                    by_window.append(added)
                elif added:
                    by_window[i] = by_window[i] + added
            new._leaf_spans[aid] = by_window
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

    def act_rows(self, act_id: int, lo: int = 0, hi: int | None = None) -> array:
        """Ascending row numbers of records with activity ``act_id``,
        optionally clipped to the window ``[lo, hi)`` — one activity's
        records of one instance when clipped to its window."""
        rows = self._act_rows[act_id]
        if lo == 0 and (hi is None or hi >= len(self._rows)):
            return rows
        left = bisect_left(rows, lo)
        right = bisect_right(rows, hi - 1, left) if hi is not None else len(rows)
        return rows[left:right]

    def leaf_spans(self, act_id: int) -> list[list[tuple]]:
        """Per-instance-window leaf incidents of one activity, as the
        vectorized engine's ``(first, last, positions)`` tuples, indexed
        by window number (the position of the wid in :attr:`wids`).

        These are invariant for a given columnar log, so they are built
        once per activity and cached — positive leaves become lookups.
        The cached lists are shared: callers must treat them as
        immutable.
        """
        spans = self._leaf_spans.get(act_id)
        if spans is None:
            spans = [[] for _ in self._wid_values]
            starts = self._starts
            wi = 0
            for row in self._act_rows[act_id]:
                while row >= starts[wi + 1]:
                    wi += 1
                p = row - starts[wi] + 1
                spans[wi].append((p, p, frozenset((p,))))
            self._leaf_spans[act_id] = spans
        return spans


_lsn_of = attrgetter("lsn")
_wid_of = attrgetter("wid")
_activity_of = attrgetter("activity")


def as_columnar(log: "Log | ColumnarLog") -> ColumnarLog:
    """``log`` as a :class:`ColumnarLog` — passes columnar views through,
    and takes an object log's own view (``Log.columnar()``)."""
    if isinstance(log, ColumnarLog):
        return log
    return log.columnar()
