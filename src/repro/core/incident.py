"""Incident instances and incident sets (Definition 4 of the paper).

An *incident* (instance) of a pattern in a log is a set of log records —
all from one workflow instance — that jointly satisfy the pattern.  Each
incident carries the three functions the paper defines on incidents:

* ``first(o)`` — smallest relevant instance-specific sequence number,
* ``last(o)``  — largest relevant instance-specific sequence number,
* ``wid(o)``   — the workflow instance the incident belongs to.

Incident identity is the *set of records* (the paper's ``incL(p)`` is a set
of sets), so two incidents with the same records compare and hash equal even
if they were derived through different sub-patterns.  ``first``/``last`` are
derived bookkeeping, not identity.

This module also contains :func:`reference_incidents`, a direct, executable
transcription of Definition 4 used as the ground-truth oracle in tests.  It
is intentionally naive (it recurses on the definition with no indexing) and
should not be used on large logs.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence, Set
from functools import total_ordering
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING

from repro.core.model import Log, LogRecord
from repro.core.pattern import (
    Atomic,
    Choice,
    Consecutive,
    Parallel,
    Pattern,
    Sequential,
)

if TYPE_CHECKING:
    from repro.columnar.column_log import ColumnarLog

__all__ = ["Incident", "IncidentSet", "reference_incidents"]


@total_ordering
class Incident:
    """A set of log records forming one match of a pattern (Definition 4).

    Parameters
    ----------
    records:
        The member log records.  They must all belong to one workflow
        instance; this is asserted at construction time.
    first, last:
        The paper's ``first(o)``/``last(o)`` values.  For every operator in
        Definition 4 these coincide with the min/max instance-specific
        sequence number of the member records, so they are computed rather
        than stored per-operator.  (A short induction on Definition 4 shows
        the recursive definitions always reduce to min/max.)

    Examples
    --------
    >>> from repro.core.model import LogRecord
    >>> a = LogRecord(lsn=3, wid=1, is_lsn=2, activity="GetRefer")
    >>> b = LogRecord(lsn=4, wid=1, is_lsn=3, activity="CheckIn")
    >>> o = Incident([a, b])
    >>> (o.first, o.last, o.wid)
    (2, 3, 1)
    """

    __slots__ = ("_records", "_key", "_sort_key", "first", "last", "wid")

    def __init__(self, records: Iterable[LogRecord]):
        recs = sorted(records, key=lambda r: r.is_lsn)
        if not recs:
            raise ValueError("an incident must contain at least one log record")
        wid = recs[0].wid
        for rec in recs:
            if rec.wid != wid:
                raise ValueError(
                    "all records of an incident must share one workflow instance; "
                    f"got wids {wid} and {rec.wid}"
                )
        self._records: tuple[LogRecord, ...] = tuple(recs)
        self._key: frozenset[int] = frozenset(r.lsn for r in recs)
        self.first: int = recs[0].is_lsn
        self.last: int = recs[-1].is_lsn
        self.wid: int = wid
        self._sort_key: tuple = (
            wid,
            self.first,
            self.last,
            tuple(sorted(self._key)),
        )

    # -- set-like behaviour ---------------------------------------------

    @property
    def records(self) -> tuple[LogRecord, ...]:
        """Member records sorted by instance-specific sequence number."""
        return self._records

    @property
    def lsns(self) -> frozenset[int]:
        """Identity key: the set of global log sequence numbers."""
        return self._key

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def __contains__(self, record: object) -> bool:
        return isinstance(record, LogRecord) and record.lsn in self._key

    def disjoint(self, other: "Incident") -> bool:
        """Whether the two incidents share no log records (used by ``⊕``)."""
        return self._key.isdisjoint(other._key)

    def union(self, other: "Incident") -> "Incident":
        """Set union of two incidents (must be in the same instance)."""
        if self.wid != other.wid:
            raise ValueError(
                f"cannot union incidents of instances {self.wid} and {other.wid}"
            )
        merged: dict[int, LogRecord] = {r.lsn: r for r in self._records}
        merged.update((r.lsn, r) for r in other._records)
        return Incident(merged.values())

    # -- identity --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Incident):
            return NotImplemented
        return self._key == other._key

    @property
    def sort_key(self) -> tuple:
        """The canonical ordering key: ``(wid, first, last, sorted lsns)``.

        This total order is *the* canonical order of ``incL(p)`` results:
        by workflow instance, then by start position, then by end position,
        with the sorted record-lsn tuple as the deterministic tiebreak for
        incidents spanning the same positions.  Every engine yields its
        final incident set in this order (via :class:`IncidentSet`), so
        equal results are equal byte for byte.
        """
        return self._sort_key

    def __lt__(self, other: "Incident") -> bool:
        """Incidents sort by :attr:`sort_key` — the canonical order all
        engines agree on."""
        if not isinstance(other, Incident):
            return NotImplemented
        return self._sort_key < other._sort_key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        members = ",".join(f"l{r.lsn}" for r in self._records)
        return f"Incident(wid={self.wid}, first={self.first}, last={self.last}, {{{members}}})"


#: A kernel result in canonical order: per matching instance, in wid
#: order, ``(wid, lo, position tuples)`` — the instance's first columnar
#: row and one ascending is-lsn tuple per incident.
CanonicalSpans = tuple[tuple[int, int, tuple[tuple[int, ...], ...]], ...]

_first = itemgetter(0)
_third = itemgetter(2)
_wid_of = attrgetter("wid")


def _positions(mask: int) -> tuple[int, ...]:
    """The ascending is-lsn positions of a kernel member mask (bit
    ``p - 1`` for position ``p``)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _canonical(spans: Sequence[tuple], rows: Sequence[LogRecord]) -> CanonicalSpans:
    """The kernel's spans — ``(first_row, last_row, mask)`` over the
    columnar ``rows`` — per instance, each instance's position tuples in
    canonical order.

    Instances are contiguous row ranges, so one sort of the whole list by
    ``(first_row, last_row, positions)`` orders every instance at once,
    and an incident's first row less its first position is the row before
    its instance's.  Masks recur from instance to instance, so each is
    decoded once."""
    decoded: dict[int, tuple[int, ...]] = {}
    ordered = sorted(
        (first, last, decoded.get(mask) or decoded.setdefault(mask, _positions(mask)))
        for first, last, mask in spans
    )
    return tuple(
        (rows[base + 1].wid, base + 1, tuple(map(_third, found)))
        for base, found in groupby(ordered, lambda span: span[0] - span[2][0])
    )


class IncidentSet:
    """The incident set ``incL(p)`` of a pattern ``p`` on a log ``L``.

    Behaves as an immutable set of :class:`Incident` with convenience
    accessors.  Iteration is in the *canonical incident order* — ascending
    ``Incident.sort_key``, i.e. ``(wid, first, last, sorted lsns)`` — which
    every engine produces and which makes results reproducible across
    engines: two equal incident sets iterate in exactly the same order,
    element for element.

    A set is built either from :class:`Incident` objects (this
    constructor) or by the join kernel from its spans
    (:meth:`from_spans`).  The second kind is a lazy view over the log's
    columns: ``len``, ``bool``, :meth:`wids` and :meth:`to_rows` read the
    spans, and the ``Incident`` objects are built once, the first time
    something hands one out or compares by them.
    """

    __slots__ = ("_incidents", "_keys", "_size", "_columns", "_raw", "_spans")

    def __init__(self, incidents: Iterable[Incident] = ()):
        self._incidents: tuple[Incident, ...] | None = tuple(sorted(set(incidents)))
        self._size = len(self._incidents)
        self._keys = self._columns = self._raw = self._spans = None

    @classmethod
    def from_spans(cls, columnar: "ColumnarLog", spans: Sequence[tuple]) -> "IncidentSet":
        """The set the join kernel found in ``columnar``, as a view over
        its spans.

        ``spans`` holds the kernel's incidents ``(first_row, last_row,
        mask)``, unique and sorted by first row: the rows of an
        incident's first and last member and an int with bit ``row -
        lo`` set for each member row of its instance's window ``[lo,
        hi)``.  The list may be shared with other results; it is read,
        never changed.

        The set keeps the row tuple and the two columns :meth:`to_rows`
        reads, not ``columnar`` itself, so a cached result does not keep a
        superseded snapshot and its indexes alive.
        """
        return cls._over(columnar, spans, None)

    @classmethod
    def _over(cls, columnar: "ColumnarLog", raw, spans) -> "IncidentSet":
        """A view over ``columnar`` of the kernel's list ``raw`` or of
        canonical ``spans`` (one is None)."""
        self = cls.__new__(cls)
        self._incidents = self._keys = None
        self._size = len(raw) if spans is None else sum(len(found) for _, _, found in spans)
        self._columns = (columnar.rows, columnar.lsn_col, columnar.act_id_col, columnar.act_names)
        self._raw, self._spans = raw, spans
        return self

    def canonical_spans(self) -> CanonicalSpans | None:
        """A kernel result's spans in canonical order; None for a set
        built from objects.  Computed once and kept in place of the
        kernel's lists.

        Each instance's incidents sort by ``(first, last)`` and then by
        the sorted lsn tuple, which orders like the sorted position tuple
        because lsn rises with is-lsn inside an instance (Definition 2,
        condition 3) — so no record but each instance's first is read and
        no object compared.
        """
        raw = self._raw  # before _spans: it is dropped only once _spans is set
        if self._spans is None and raw is not None:
            self._spans = _canonical(raw, self._columns[0])
            self._raw = None
        return self._spans

    def carried_to(
        self,
        columnar: "ColumnarLog",
        touched: Set[int],
        found: Sequence[tuple],
    ) -> "IncidentSet":
        """This kernel result at a later epoch of its store, whose
        snapshot is ``columnar``: the instances in ``touched`` (every one
        that got a record since) take the kernel's spans ``found`` over
        their windows (as for :meth:`from_spans`), and every other keeps
        its canonical tuples with its first row in ``columnar``.

        Exact, because an incident lies inside one instance (Definition
        4) and an untouched instance has the same records at the same
        positions.  The new set is in canonical form already.
        """
        spans = self.canonical_spans()
        # rows move only behind the first instance that grew
        stay = bisect_left(spans, min(touched), key=_first)
        merged = list(spans[:stay])
        merged += [
            (wid, columnar.window(wid)[1], tuples)
            for wid, _, tuples in spans[stay:]
            if wid not in touched
        ]
        merged += _canonical(found, columnar.rows)
        merged.sort(key=_first)
        return IncidentSet._over(columnar, None, tuple(merged))

    def _materialized(self) -> tuple[Incident, ...]:
        incidents = self._incidents
        if incidents is None:
            rows = self._columns[0]
            incidents = self._incidents = tuple(
                Incident([rows[lo + p - 1] for p in positions])
                for _, lo, tuples in self.canonical_spans()
                for positions in tuples
            )
        return incidents

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[Incident]:
        return iter(self._materialized())

    def __contains__(self, incident: object) -> bool:
        if not isinstance(incident, Incident):
            return False
        if self._incidents is None:
            # a kernel result nobody has iterated: look only at the spans
            # of the incident's own instance
            lsn = self._columns[1]
            for wid, lo, tuples in self.canonical_spans():
                if wid == incident.wid:
                    records = incident.records
                    return tuple(r.is_lsn for r in records) in tuples and all(
                        lsn[lo + r.is_lsn - 1] == r.lsn for r in records
                    )
            return False
        if self._keys is None:
            self._keys = frozenset(self._incidents)
        return incident in self._keys

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IncidentSet):
            return self._materialized() == other._materialized()
        if isinstance(other, (set, frozenset)):
            return frozenset(self._materialized()) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._materialized())

    def __reduce__(self):
        # pickles as its incidents, not as a view over a log's columns
        return (IncidentSet, (self._materialized(),))

    def __repr__(self) -> str:
        return f"IncidentSet({self._size} incidents)"

    def to_rows(self, limit: int | None = None) -> list[dict[str, object]]:
        """The incidents as plain dict rows, in canonical order; with a
        ``limit``, only the first ``limit`` of them.

        This is the stable tabular surface for downstream consumers
        (dataframes, JSON serialisation, the CLI): one row per incident
        with keys ``wid``, ``first``, ``last``, ``lsns`` (sorted tuple of
        global record lsns — the incident's identity) and ``activities``
        (names in execution order).  Row order is the canonical incident
        order (ascending :attr:`Incident.sort_key`), so equal incident
        sets serialise identically byte for byte.  A kernel result is
        read off its spans and the log's columns; it builds no
        :class:`Incident`.
        """
        if self._columns is None:
            return [
                {
                    "wid": o.wid,
                    "first": o.first,
                    "last": o.last,
                    "lsns": tuple(sorted(o.lsns)),
                    "activities": tuple(r.activity for r in o.records),
                }
                for o in self._materialized()[:limit]
            ]
        _, lsn, act_id, names = self._columns
        return [
            {
                "wid": wid,
                "first": positions[0],
                "last": positions[-1],
                "lsns": tuple([lsn[base + p] for p in positions]),
                "activities": tuple([names[act_id[base + p]] for p in positions]),
            }
            for wid, base, tuples in self._shown(limit)
            for positions in tuples
        ]

    def _shown(self, limit: int | None) -> Iterator[tuple[int, int, tuple]]:
        """A kernel result's first ``limit`` incidents, instance by
        instance: ``(wid, base, position tuples)`` with the record at
        position ``p`` in row ``base + p``."""
        left = len(range(self._size)[:limit])  # as many as slicing by limit keeps
        for wid, lo, tuples in self.canonical_spans():
            if not left:
                return
            tuples = tuples[:left]
            left -= len(tuples)
            yield wid, lo - 1, tuples

    def rows_json(self, limit: int | None = None) -> tuple[str, int]:
        """``json.dumps(self.to_rows(limit), sort_keys=True)`` and the
        number of rows in it.

        A kernel result is written from its spans and the log's columns
        with no row in between: one string per incident, the activity
        names quoted once per call.
        """
        if self._columns is None:
            rows = self.to_rows(limit)
            return json.dumps(rows, sort_keys=True), len(rows)
        _, lsn, act_id, names = self._columns
        quoted = [json.dumps(name) for name in names]
        out: list[str] = []
        for wid, base, tuples in self._shown(limit):
            tail = f'], "wid": {wid}}}'
            out += [
                f'{{"activities": [{", ".join([quoted[act_id[base + p]] for p in positions])}], '
                f'"first": {positions[0]}, "last": {positions[-1]}, '
                f'"lsns": [{", ".join([str(lsn[base + p]) for p in positions])}{tail}'
                for positions in tuples
            ]
        if out:  # the brackets go into the join: a fat text is built once
            out[0] = "[" + out[0]
            out[-1] += "]"
        return ", ".join(out) or "[]", len(out)

    def wids(self) -> tuple[int, ...]:
        """Instance ids that have at least one incident."""
        if self._columns is not None:
            if self._spans is None:  # the kernel's list: the first rows' wids, in row order
                firsts = map(self._columns[0].__getitem__, map(_first, self._raw))
                return tuple(dict.fromkeys(map(_wid_of, firsts)))
            return tuple(wid for wid, _, _ in self._spans)
        return tuple(sorted({o.wid for o in self._materialized()}))

    def lsn_sets(self) -> frozenset[frozenset[int]]:
        """Identity view: the set of record-lsn sets (handy in tests)."""
        return frozenset(o.lsns for o in self._materialized())


# ---------------------------------------------------------------------------
# Reference semantics: a literal transcription of Definition 4.
# ---------------------------------------------------------------------------

def reference_incidents(log: Log, pattern: Pattern) -> IncidentSet:
    """Ground-truth ``incL(p)`` computed directly from Definition 4.

    This recursive oracle makes no attempt at efficiency; it exists so the
    production engines can be differential-tested against the definition
    itself.
    """
    return IncidentSet(_reference(log, pattern))


def _reference(log: Log, pattern: Pattern) -> set[Incident]:
    if isinstance(pattern, Atomic):
        return {Incident([r]) for r in log if pattern.matches(r)}

    assert hasattr(pattern, "left") and hasattr(pattern, "right")
    left = _reference(log, pattern.left)
    right = _reference(log, pattern.right)

    if isinstance(pattern, Choice):
        return left | right

    out: set[Incident] = set()
    for o1 in left:
        for o2 in right:
            if o1.wid != o2.wid:
                continue
            if isinstance(pattern, (Consecutive, Sequential)):
                if pattern.gap_ok(o1.last, o2.first):
                    out.add(o1.union(o2))
            elif isinstance(pattern, Parallel):
                if o1.disjoint(o2):
                    out.add(o1.union(o2))
            else:  # pragma: no cover - unknown operator
                raise TypeError(f"unknown pattern operator {type(pattern).__name__}")
    return out
