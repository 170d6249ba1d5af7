"""Immutable columnar representation of a workflow log.

:class:`ColumnarLog` stores one :class:`~repro.core.model.Log` as four
contiguous integer columns plus two interning dictionaries:

* ``lsn``, ``wid_id``, ``is_lsn``, ``act_id`` — ``array('q')`` columns,
  one entry per record, exposed as read-only :class:`memoryview`\\ s;
* the *wid dictionary* — sorted distinct wids; ``wid_id`` holds the
  index of each record's wid in that list;
* the *activity dictionary* — sorted distinct activity names; ``act_id``
  holds the index of each record's activity.

Rows are ordered by ``(wid ascending, is_lsn ascending)``, so every
workflow instance occupies one contiguous row range ``[starts[i],
starts[i+1])``.  Engines operating set-at-a-time (the vectorized engine,
the sqlite pushdown backend) slice per-wid column windows instead of
walking object records; a per-activity row index (ascending row numbers
per ``act_id``) gives the bitmap-filter equivalent of
``Log.with_activity``.

The representation is *derived*, never primary: it keeps a reference to
its source :class:`Log` (for attribute-guarded predicates that need the
full record objects) and :meth:`to_log` reconstructs an equal log from
the source rows.  Provenance (``epoch``/``lineage``/``is_snapshot``/
``fingerprint``) delegates to the source so cache identity is unchanged.
Construction is cached per :class:`Log` (via ``Log.columnar()``) and per
store epoch (via ``LogStore.columnar()``); the next snapshot of a store
gets its view from its predecessor's by :meth:`ColumnarLog.extended`, and
:meth:`ColumnarLog.from_log` is the one full build.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence

from repro.core.model import Log, LogRecord

__all__ = ["ColumnarLog", "as_columnar"]


class ColumnarLog:
    """Columnar, interned view of one immutable log (see module docs).

    Exposes the read surface of :class:`~repro.core.model.Log`
    (``records``, ``instance``, ``activities``, ``wids``, provenance), so
    the engines accept either through :func:`as_columnar`.
    """

    __slots__ = (
        "_source",
        "_rows",
        "_lsn",
        "_wid_id",
        "_is_lsn",
        "_act_id",
        "_wid_values",
        "_starts",
        "_act_names",
        "_act_index",
        "_act_rows",
        "_leaf_spans",
    )

    def __init__(self, source: Log, *, _trusted: bool = False):
        if not _trusted:
            raise TypeError(
                "use ColumnarLog.from_log(log) (or log.columnar()) instead of "
                "constructing ColumnarLog directly"
            )
        self._source = source
        # Rows grouped per instance: (wid asc, is_lsn asc).  Within one wid
        # is_lsn order equals lsn order (Definition 2, condition 3), so each
        # instance window is ascending in every column.
        rows: list[LogRecord] = []
        wid_values = array("q")
        starts = array("q", [0])
        for w in source.wids:
            wid_values.append(w)
            rows.extend(source.instance(w))
            starts.append(len(rows))
        self._rows: tuple[LogRecord, ...] = tuple(rows)
        self._wid_values = wid_values
        self._starts = starts

        act_names = tuple(sorted(source.activities))
        act_index = {name: i for i, name in enumerate(act_names)}
        self._act_names = act_names
        self._act_index = act_index

        n = len(rows)
        lsn_col = array("q", bytes(8 * n))
        wid_col = array("q", bytes(8 * n))
        isl_col = array("q", bytes(8 * n))
        act_col = array("q", bytes(8 * n))
        act_rows: tuple[array, ...] = tuple(array("q") for _ in act_names)
        wid_cursor = 0
        for row, rec in enumerate(rows):
            while row >= starts[wid_cursor + 1]:
                wid_cursor += 1
            aid = act_index[rec.activity]
            lsn_col[row] = rec.lsn
            wid_col[row] = wid_cursor
            isl_col[row] = rec.is_lsn
            act_col[row] = aid
            act_rows[aid].append(row)
        self._lsn = lsn_col
        self._wid_id = wid_col
        self._is_lsn = isl_col
        self._act_id = act_col
        self._act_rows = act_rows
        self._leaf_spans: dict[int, list[list[tuple]]] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_log(cls, log: Log) -> "ColumnarLog":
        """The columnar form of ``log`` (fresh; prefer ``log.columnar()``
        which caches the result on the log)."""
        return cls(log, _trusted=True)

    def extended(self, source: Log, tail: Sequence[LogRecord]) -> "ColumnarLog":
        """The columnar form of ``source``, which is this view's log
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
                return ColumnarLog.from_log(source)
            by_wid.setdefault(rec.wid, []).append(rec)
        new_wids = array("q", [w for w in sorted(by_wid) if w > wid_values[-1]])
        # per touched instance, in row order: (wid id, old row its new
        # rows go before, the rows)
        splices: list[tuple[int, int, list[LogRecord]]] = []
        for w in sorted(by_wid.keys() - set(new_wids)):
            i = bisect_left(wid_values, w)
            if wid_values[i] != w:
                return ColumnarLog.from_log(source)
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
        new._source = source
        new._rows = tuple(spliced([], self._rows, [recs for _, _, recs in splices]))
        new._lsn = spliced(array("q"), self._lsn, ints(lambda r: r.lsn))
        new._wid_id = spliced(
            array("q"), self._wid_id, [array("q", [i]) * len(recs) for i, _, recs in splices]
        )
        new._is_lsn = spliced(array("q"), self._is_lsn, ints(lambda r: r.is_lsn))
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

    def to_log(self) -> Log:
        """Reconstruct an object-row :class:`Log` equal to the source.

        Rebuilds from this view's own rows (not by returning the source),
        so the round-trip property ``ColumnarLog.from_log(log).to_log() ==
        log`` genuinely exercises the columnar row set.
        """
        return Log(
            self._rows,
            validate=False,
            epoch=self._source.epoch,
            lineage=self._source.lineage,
            snapshot=self._source.is_snapshot,
        )

    @property
    def source(self) -> Log:
        """The object-row log this view was built from."""
        return self._source

    # -- the read surface of Log ---------------------------------------------

    @property
    def records(self) -> tuple[LogRecord, ...]:
        """All records in ascending ``lsn`` order: the source log's tuple
        (the rows here are those same objects, grouped by instance)."""
        return self._source.records

    def instance(self, wid_value: int) -> tuple[LogRecord, ...]:
        """The records of one instance in ``is_lsn`` order (empty when
        absent) — a slice of the grouped row tuple."""
        try:
            _, lo, hi = self.window(wid_value)
        except KeyError:
            return ()
        return self._rows[lo:hi]

    @property
    def activities(self) -> frozenset[str]:
        """The set of activity names occurring in the log."""
        return frozenset(self._act_names)

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
            f"{len(self._act_names)} activities, {self.nbytes} column bytes)"
        )

    # -- provenance (cache identity delegates to the source log) -------------

    @property
    def epoch(self) -> int:
        return self._source.epoch

    @property
    def lineage(self) -> str | None:
        return self._source.lineage

    @property
    def is_snapshot(self) -> bool:
        return self._source.is_snapshot

    @property
    def fingerprint(self) -> str:
        return self._source.fingerprint

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
    def wid_id_col(self) -> memoryview:
        """Read-only interned-wid column."""
        return memoryview(self._wid_id).toreadonly()

    @property
    def is_lsn_col(self) -> memoryview:
        """Read-only ``is_lsn`` column."""
        return memoryview(self._is_lsn).toreadonly()

    @property
    def act_id_col(self) -> memoryview:
        """Read-only interned-activity column."""
        return memoryview(self._act_id).toreadonly()

    @property
    def nbytes(self) -> int:
        """Total bytes held by the four integer columns."""
        return sum(
            col.itemsize * len(col)
            for col in (self._lsn, self._wid_id, self._is_lsn, self._act_id)
        )

    # -- dictionaries and indexes --------------------------------------------

    @property
    def act_names(self) -> tuple[str, ...]:
        """The interned activity dictionary (sorted ascending)."""
        return self._act_names

    def act_id_of(self, activity: str) -> int | None:
        """Interned id of ``activity``, or None when it never occurs."""
        return self._act_index.get(activity)

    def act_name_of(self, act_id: int) -> str:
        """Inverse of :meth:`act_id_of`."""
        return self._act_names[act_id]

    def wid_of(self, wid_id: int) -> int:
        """The wid interned as ``wid_id``."""
        return self._wid_values[wid_id]

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
        optionally clipped to the window ``[lo, hi)`` — the columnar
        analogue of ``Log.with_activity`` restricted to one instance."""
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

    def row_record(self, row: int) -> LogRecord:
        """The record object at columnar row ``row``."""
        return self._rows[row]

    def with_activity(self, activity: str) -> tuple[LogRecord, ...]:
        """All records with the given activity, in lsn order
        (``Log``-compat name, used by the counting evaluator)."""
        aid = self._act_index.get(activity)
        if aid is None:
            return ()
        recs = [self._rows[row] for row in self._act_rows[aid]]
        recs.sort(key=lambda r: r.lsn)
        return tuple(recs)

    def record(self, lsn_value: int) -> LogRecord:
        """The record with log sequence number ``lsn_value``
        (``Log``-compat name)."""
        return self._source.record(lsn_value)


def as_columnar(log: "Log | ColumnarLog") -> ColumnarLog:
    """``log`` as a :class:`ColumnarLog` — passes columnar views through,
    and uses the per-log cache (``Log.columnar()``) for object logs."""
    if isinstance(log, ColumnarLog):
        return log
    return log.columnar()
