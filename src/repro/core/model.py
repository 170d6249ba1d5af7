"""Workflow-log data model (Definitions 1 and 2 of the paper).

A *log record* is a tuple ``(lsn, wid, is-lsn, t, αin, αout)`` capturing one
activity execution inside one workflow instance:

* ``lsn`` — global log sequence number (positions ``1..|L|``),
* ``wid`` — workflow instance id,
* ``is_lsn`` — instance-specific log sequence number (``1..`` per instance),
* ``activity`` — the activity name ``t``,
* ``attrs_in`` / ``attrs_out`` — the input/output attribute maps.

A *log* is a finite set of records satisfying the four well-formedness
conditions of Definition 2; :func:`definition2_violations` lists the
violations, and :class:`Log` raises the first.  Each workflow instance
begins with a ``START`` record and optionally ends with an ``END`` record.

A :class:`Log` holds its records in lsn order and one index, its
:class:`~repro.columnar.column_log.ColumnarLog` (per-instance row windows
and per-activity row numbers), built with the log.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Any

from repro.core.errors import LogValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columnar.column_log import ColumnarLog

__all__ = [
    "START",
    "END",
    "AttrMap",
    "LogRecord",
    "Log",
    "definition2_violations",
]

#: Activity name of the mandatory first record of every workflow instance.
START = "START"

#: Activity name of the optional final record of a workflow instance.
END = "END"

#: Attribute maps assign values to a finite set of attribute names.
AttrMap = Mapping[str, Any]

_EMPTY_MAP: AttrMap = MappingProxyType({})


def _freeze_attrs(attrs: AttrMap | None) -> AttrMap:
    """Return an immutable view of ``attrs`` (``None`` becomes empty)."""
    if attrs is None or len(attrs) == 0:
        return _EMPTY_MAP
    return MappingProxyType(dict(attrs))


@dataclass(frozen=True, slots=True)
class LogRecord:
    """A single entry of a workflow log (Definition 1).

    Instances are immutable and hashable; identity within a log is carried
    by the globally unique ``lsn``.

    Examples
    --------
    >>> rec = LogRecord(lsn=4, wid=1, is_lsn=3, activity="CheckIn",
    ...                 attrs_in={"referId": "034d1"},
    ...                 attrs_out={"referState": "active"})
    >>> rec.activity
    'CheckIn'
    >>> rec.attrs_out["referState"]
    'active'
    """

    lsn: int
    wid: int
    is_lsn: int
    activity: str
    attrs_in: AttrMap | None = field(default=None)
    attrs_out: AttrMap | None = field(default=None)

    def __post_init__(self) -> None:
        if self.lsn < 1:
            raise LogValidationError(
                f"lsn must be a positive natural number, got {self.lsn}", lsn=self.lsn
            )
        if self.wid < 1:
            raise LogValidationError(
                f"wid must be a positive natural number, got {self.wid}", lsn=self.lsn
            )
        if self.is_lsn < 1:
            raise LogValidationError(
                f"is-lsn must be a positive natural number, got {self.is_lsn}",
                lsn=self.lsn,
            )
        if not self.activity:
            raise LogValidationError("activity name must be nonempty", lsn=self.lsn)
        object.__setattr__(self, "attrs_in", _freeze_attrs(self.attrs_in))
        object.__setattr__(self, "attrs_out", _freeze_attrs(self.attrs_out))

    def __hash__(self) -> int:
        # equality includes the attribute maps, but the hash only needs the
        # identity columns (maps may hold unhashable values such as lists)
        return hash((self.lsn, self.wid, self.is_lsn, self.activity))

    # Records are immutable: copying returns self; pickling rebuilds from
    # plain dicts (mappingproxy itself is not picklable).
    def __copy__(self) -> "LogRecord":
        return self

    def __deepcopy__(self, memo) -> "LogRecord":
        return self

    def __reduce__(self):
        return (
            LogRecord,
            (
                self.lsn,
                self.wid,
                self.is_lsn,
                self.activity,
                dict(self.attrs_in),
                dict(self.attrs_out),
            ),
        )

    # Records are totally ordered by their global log sequence number.
    def __lt__(self, other: "LogRecord") -> bool:
        return self.lsn < other.lsn

    def __le__(self, other: "LogRecord") -> bool:
        return self.lsn <= other.lsn

    @property
    def is_start(self) -> bool:
        """Whether this is a ``START`` sentinel record."""
        return self.activity == START

    @property
    def is_end(self) -> bool:
        """Whether this is an ``END`` sentinel record."""
        return self.activity == END

    @property
    def is_sentinel(self) -> bool:
        """Whether this record is a ``START`` or ``END`` sentinel."""
        return self.is_start or self.is_end

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict representation used by the serialization modules."""
        return {
            "lsn": self.lsn,
            "wid": self.wid,
            "is_lsn": self.is_lsn,
            "activity": self.activity,
            "attrs_in": dict(self.attrs_in),
            "attrs_out": dict(self.attrs_out),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LogRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            lsn=int(data["lsn"]),
            wid=int(data["wid"]),
            is_lsn=int(data["is_lsn"]),
            activity=str(data["activity"]),
            attrs_in=data.get("attrs_in") or {},
            attrs_out=data.get("attrs_out") or {},
        )

    def __repr__(self) -> str:  # compact, log-table-like
        return (
            f"LogRecord(lsn={self.lsn}, wid={self.wid}, is_lsn={self.is_lsn}, "
            f"activity={self.activity!r})"
        )


class Log:
    """A well-formed workflow log (Definition 2).

    A :class:`Log` is an immutable sequence of :class:`LogRecord` objects in
    ascending ``lsn`` order.  Construction validates the four conditions of
    Definition 2 unless ``validate=False`` is passed (used internally when
    the source is already trusted, e.g. the workflow engine).

    Definition 2 conditions enforced:

    1. the set of lsn values is exactly ``{1, ..., |L|}``;
    2. ``is_lsn == 1`` iff the record's activity is ``START``;
    3. within an instance, ``is_lsn`` values are consecutive, and the record
       with ``is_lsn = k+1`` appears later in the log than the one with
       ``is_lsn = k``;
    4. an ``END`` record is the last record of its instance.

    Examples
    --------
    >>> log = Log.from_tuples([
    ...     (1, 1, 1, "START"),
    ...     (2, 1, 2, "GetRefer"),
    ...     (3, 1, 3, "CheckIn"),
    ... ])
    >>> len(log)
    3
    >>> [r.activity for r in log.instance(1)]
    ['START', 'GetRefer', 'CheckIn']
    """

    __slots__ = (
        "_records",
        "_epoch",
        "_lineage",
        "_is_snapshot",
        "_fingerprint",
        "_columnar",
    )

    def __init__(
        self,
        records: Iterable[LogRecord],
        *,
        validate: bool = True,
        epoch: int = 0,
        lineage: str | None = None,
        snapshot: bool = False,
    ):
        from repro.columnar.column_log import ColumnarLog

        self._records: tuple[LogRecord, ...] = tuple(sorted(records, key=_lsn_of))
        self._epoch = epoch
        self._lineage = lineage
        self._is_snapshot = snapshot
        self._fingerprint: str | None = None
        if validate:
            self.validate()
        self._columnar = ColumnarLog.from_log(self)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_tuples(
        cls,
        rows: Iterable[tuple | Sequence],
        *,
        validate: bool = True,
    ) -> "Log":
        """Build a log from ``(lsn, wid, is_lsn, activity[, αin[, αout]])``
        tuples — the column layout of Figure 3 in the paper."""
        records = []
        for row in rows:
            row = tuple(row)
            if not 4 <= len(row) <= 6:
                raise LogValidationError(
                    f"expected 4-6 fields per row, got {len(row)}: {row!r}"
                )
            ain = row[4] if len(row) > 4 else None
            aout = row[5] if len(row) > 5 else None
            records.append(
                LogRecord(
                    lsn=row[0],
                    wid=row[1],
                    is_lsn=row[2],
                    activity=row[3],
                    attrs_in=ain,
                    attrs_out=aout,
                )
            )
        return cls(records, validate=validate)

    @classmethod
    def from_traces(
        cls,
        traces: Mapping[int, Sequence[str]] | Sequence[Sequence[str]],
        *,
        interleave: bool = False,
        add_sentinels: bool = True,
    ) -> "Log":
        """Build a log from per-instance activity-name sequences.

        ``traces`` maps instance ids to activity-name sequences (or is a
        list, in which case instance ids ``1..n`` are assigned).  When
        ``interleave`` is false the instances are logged back to back; when
        true their records are round-robin interleaved, exercising the
        multi-instance structure of real logs.  ``add_sentinels`` prepends a
        ``START`` record (required by Definition 2) and appends an ``END``
        record to every instance.
        """
        if not isinstance(traces, Mapping):
            traces = {i + 1: seq for i, seq in enumerate(traces)}
        per_instance: dict[int, list[str]] = {}
        for w, seq in traces.items():
            names = list(seq)
            if add_sentinels:
                names = [START, *names, END]
            if not names or names[0] != START:
                raise LogValidationError(
                    f"instance {w} does not begin with START", condition=2
                )
            per_instance[int(w)] = names

        records: list[LogRecord] = []
        next_lsn = 1
        if interleave:
            cursors = {w: 0 for w in per_instance}
            remaining = sum(len(v) for v in per_instance.values())
            order = sorted(per_instance)
            while remaining:
                for w in order:
                    i = cursors[w]
                    if i >= len(per_instance[w]):
                        continue
                    records.append(
                        LogRecord(
                            lsn=next_lsn,
                            wid=w,
                            is_lsn=i + 1,
                            activity=per_instance[w][i],
                        )
                    )
                    cursors[w] += 1
                    next_lsn += 1
                    remaining -= 1
        else:
            for w in sorted(per_instance):
                for i, name in enumerate(per_instance[w]):
                    records.append(
                        LogRecord(lsn=next_lsn, wid=w, is_lsn=i + 1, activity=name)
                    )
                    next_lsn += 1
        return cls(records)

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> LogRecord:
        return self._records[index]

    def __contains__(self, record: object) -> bool:
        if not isinstance(record, LogRecord):
            return False
        try:
            return self.record(record.lsn) == record
        except KeyError:
            return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Log):
            return NotImplemented
        return self._records == other._records

    def __hash__(self) -> int:
        return hash(self._records)

    def __repr__(self) -> str:
        return f"Log({len(self)} records, {len(self.wids)} instances)"

    # -- views ---------------------------------------------------------------

    @property
    def records(self) -> tuple[LogRecord, ...]:
        """All records in ascending ``lsn`` order."""
        return self._records

    @property
    def wids(self) -> tuple[int, ...]:
        """All workflow instance ids present in the log, sorted."""
        return self._columnar.wids

    @property
    def activities(self) -> frozenset[str]:
        """The set of activity names occurring in the log."""
        return frozenset(self._columnar.act_names)

    # -- provenance (cache invalidation, see repro.cache) -------------------

    @property
    def epoch(self) -> int:
        """Append epoch of the originating store at snapshot time.

        Stores bump their epoch on every appended record; a snapshot
        carries the epoch it was taken at, so two snapshots of one store
        are content-identical iff their ``(lineage, epoch)`` pairs match.
        Logs built directly (``from_traces``, file loaders) stay at 0.
        """
        return self._epoch

    @property
    def lineage(self) -> str | None:
        """Identity token of the originating append-only store, or None
        for logs without store provenance.  Within one lineage, records
        are never mutated or removed, so ``(lineage, epoch)`` names one
        exact content."""
        return self._lineage

    @property
    def is_snapshot(self) -> bool:
        """Whether this log is a *complete* store snapshot (as opposed to
        a projection), making ``(lineage, epoch)`` a sound
        whole-log cache identity."""
        return self._is_snapshot

    @property
    def fingerprint(self) -> str:
        """Content digest of the log, computed lazily and cached.

        Used as the whole-log cache identity when no store lineage is
        available.  Covers every identity column and both attribute maps
        of every record.
        """
        if self._fingerprint is None:
            import hashlib

            digest = hashlib.blake2b(digest_size=16)
            for r in self._records:
                digest.update(
                    f"{r.lsn}|{r.wid}|{r.is_lsn}|{r.activity}|"
                    f"{sorted(r.attrs_in.items())!r}|"
                    f"{sorted(r.attrs_out.items())!r}\n".encode()
                )
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def record(self, lsn_value: int) -> LogRecord:
        """The record with log sequence number ``lsn_value``.

        Raises ``KeyError`` if no such record exists.
        """
        records = self._records  # bisected: a projection's lsn values have gaps
        i = bisect_left(records, lsn_value, key=_lsn_of)
        if i == len(records) or records[i].lsn != lsn_value:
            raise KeyError(lsn_value)
        return records[i]

    def instance(self, wid_value: int) -> tuple[LogRecord, ...]:
        """All records of workflow instance ``wid_value`` in is-lsn order:
        its window of the columnar rows."""
        columnar = self._columnar
        try:
            _, lo, hi = columnar.window(wid_value)
        except KeyError:
            return ()
        return columnar.rows[lo:hi]

    def columnar(self) -> "ColumnarLog":
        """The columnar form of this log, built with it: the log's one
        per-instance and per-activity index."""
        return self._columnar

    def extended(self, tail: Iterable[LogRecord]) -> "Log":
        """This log followed by ``tail``: the next snapshot of the
        append-only store this one was taken of.

        Definition 2 is checked for ``tail`` only, against the last record
        of each touched instance in this log's columnar windows, and fails
        with the errors the whole-log check raises.  The columnar form is
        extended, not rebuilt (:meth:`ColumnarLog.extended
        <repro.columnar.column_log.ColumnarLog.extended>`).  The epoch
        advances by ``len(tail)``, a store's epoch being its record count.
        """
        tail = tuple(tail)
        records = self._records + tail
        for error in definition2_violations(records, len(self._records), self._columnar):
            raise error
        new = Log.__new__(Log)
        new._records = records
        new._epoch = self._epoch + len(tail)
        new._lineage = self._lineage
        new._is_snapshot = self._is_snapshot
        new._fingerprint = None
        new._columnar = self._columnar.extended(new, tail)
        return new

    def is_complete(self, wid_value: int) -> bool:
        """Whether instance ``wid_value`` has reached its ``END`` record."""
        recs = self.instance(wid_value)
        return bool(recs) and recs[-1].is_end

    def project(self, wids: Iterable[int]) -> "Log":
        """A wid-projection: only the given instances, with the *original*
        ``lsn`` values preserved.

        The result is not validated (condition 1 of Definition 2 requires
        contiguous lsn values, which a projection deliberately breaks) and
        the record objects are shared, not copied.  Because incidents are
        identified by their record-lsn sets (Definition 4), a pattern's
        incident set over a projection equals the same-wid slice of its
        incident set over the whole log — the property the kernel's
        per-wid windows rest on (``tests/test_properties.py``).
        """
        keep = set(wids)
        return Log(
            (r for r in self._records if r.wid in keep),
            validate=False,
            epoch=self._epoch,
            lineage=self._lineage,
            snapshot=False,
        )

    def validate(self) -> None:
        """Re-run the Definition 2 well-formedness checks."""
        for error in definition2_violations(self._records):
            raise error

    def __reduce__(self):
        # rebuilt from the records: the columnar form is built anew, not
        # pickled alongside them
        return (
            partial(
                Log,
                validate=False,
                epoch=self._epoch,
                lineage=self._lineage,
                snapshot=self._is_snapshot,
            ),
            (self._records,),
        )


_lsn_of = attrgetter("lsn")


def definition2_violations(
    records: Sequence[LogRecord],
    checked: int = 0,
    proven: "ColumnarLog | None" = None,
) -> Iterator[LogValidationError]:
    """Every violation of Definition 2 in the lsn-sorted ``records``, in
    the order the conditions are numbered: the lsn conditions over the
    whole input first, then conditions 2–4 record by record.

    ``Log`` raises the first one and ``repro-logs validate`` reports them
    all.  The first ``checked`` records are taken as well-formed already,
    with ``proven`` their columnar form: the last row of an instance's
    window gives the next is-lsn to expect and whether the instance has
    ended, which is all the conditions ask of what came before.
    """
    if not records:
        yield LogValidationError("log is empty")
        return
    tail = records[checked:]

    # Condition 1: lsn values are exactly 1..|L|.  Sorted, that is each
    # one following its predecessor by exactly 1.
    previous = records[checked - 1].lsn if checked else 0
    for record in tail:
        if record.lsn == previous:
            yield LogValidationError(
                "duplicate log sequence number", condition=1, lsn=record.lsn
            )
        elif record.lsn != previous + 1:
            yield LogValidationError(
                f"lsn values must be exactly 1..{len(records)}; "
                f"found lsn={record.lsn} after lsn={previous}",
                condition=1,
                lsn=record.lsn,
            )
        previous = record.lsn

    last_is_lsn: dict[int, int] = {}
    ended: set[int] = set()
    if proven is not None:
        rows = proven.rows
        for wid_value in {record.wid for record in tail}:
            try:
                _, _, hi = proven.window(wid_value)
            except KeyError:
                continue
            last_is_lsn[wid_value] = rows[hi - 1].is_lsn
            if rows[hi - 1].is_end:
                ended.add(wid_value)
    for record in tail:
        if record.wid in ended:
            yield LogValidationError(
                f"instance {record.wid} has records after its END record",
                condition=4,
                lsn=record.lsn,
            )
        # Condition 2: is_lsn == 1 iff activity == START.
        if (record.is_lsn == 1) != record.is_start:
            yield LogValidationError(
                f"is-lsn==1 iff activity==START violated at lsn={record.lsn} "
                f"(is-lsn={record.is_lsn}, activity={record.activity!r})",
                condition=2,
                lsn=record.lsn,
            )
        # Condition 3: per-instance is_lsn values are consecutive and appear
        # in ascending lsn order.
        expected = last_is_lsn.get(record.wid, 0) + 1
        if record.is_lsn != expected:
            yield LogValidationError(
                f"instance {record.wid}: expected is-lsn {expected}, "
                f"got {record.is_lsn} at lsn={record.lsn}",
                condition=3,
                lsn=record.lsn,
            )
        last_is_lsn[record.wid] = record.is_lsn
        if record.is_end:
            ended.add(record.wid)
