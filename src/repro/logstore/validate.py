"""Non-throwing log validation and repair.

:class:`~repro.core.model.Log` raises the first Definition 2 violation;
operational tooling usually wants *all* problems listed
(:func:`validation_report`) and, where possible, a best-effort repair
(:func:`repair_log`) that salvages the valid prefix of each instance and
re-compacts global sequence numbers.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from operator import attrgetter

from repro.core.model import END, START, Log, LogRecord, definition2_violations

__all__ = ["ValidationIssue", "validation_report", "repair_log"]


@dataclass(frozen=True)
class ValidationIssue:
    """One Definition 2 violation found in a record collection."""

    condition: int
    lsn: int | None
    message: str

    def __str__(self) -> str:
        where = f"lsn={self.lsn}" if self.lsn is not None else "log"
        return f"[condition {self.condition}] {where}: {self.message}"


def validation_report(records: Iterable[LogRecord]) -> list[ValidationIssue]:
    """All Definition 2 violations in ``records`` (empty list = valid).

    The violations are :func:`~repro.core.model.definition2_violations`'s,
    the generator whose first item :class:`Log` raises; this lists them
    all, which is what log-ingestion tooling needs.
    """
    return [
        ValidationIssue(error.condition, error.lsn, str(error))
        for error in definition2_violations(sorted(records, key=attrgetter("lsn")))
    ]


def repair_log(records: Iterable[LogRecord]) -> tuple[Log, list[LogRecord]]:
    """Best-effort repair: salvage the longest valid prefix of every
    instance and rebuild a well-formed log.

    Returns ``(repaired_log, dropped_records)``.  Repair steps:

    * records of an instance whose is-lsn is not the next consecutive
      value (or that follow an END) are dropped, along with the rest of
      that instance;
    * instances that do not begin with a START record get one synthesised
      (with subsequent is-lsn values shifted);
    * global lsn values are re-compacted to ``1..n`` in original order.
    """
    recs = sorted(records, key=lambda r: r.lsn)
    kept: list[LogRecord] = []
    dropped: list[LogRecord] = []
    progress: dict[int, int] = {}
    needs_start_shift: set[int] = set()
    broken: set[int] = set()
    ended: set[int] = set()

    for record in recs:
        wid = record.wid
        if wid in broken or wid in ended:
            dropped.append(record)
            continue
        seen = progress.get(wid, 0)
        expected = seen + 1
        is_lsn = record.is_lsn
        if seen == 0 and record.activity != START:
            # synthesise a START: this instance's records shift by one
            needs_start_shift.add(wid)
        if wid in needs_start_shift:
            is_lsn = record.is_lsn + 1
        if seen == 0 and record.activity != START:
            expected = 2  # after the synthetic START
        if is_lsn != expected:
            broken.add(wid)
            dropped.append(record)
            continue
        progress[wid] = is_lsn
        kept.append(
            LogRecord(
                lsn=record.lsn,
                wid=wid,
                is_lsn=is_lsn,
                activity=record.activity,
                attrs_in=record.attrs_in,
                attrs_out=record.attrs_out,
            )
        )
        if record.activity == END:
            ended.add(wid)

    # materialise synthetic STARTs at each instance's first kept position
    final: list[LogRecord] = []
    started: set[int] = set()
    for record in kept:
        if record.wid in needs_start_shift and record.wid not in started:
            final.append(
                LogRecord(
                    lsn=record.lsn,  # placeholder; compacted below
                    wid=record.wid,
                    is_lsn=1,
                    activity=START,
                )
            )
        started.add(record.wid)
        final.append(record)

    compacted = [
        LogRecord(
            lsn=i + 1,
            wid=r.wid,
            is_lsn=r.is_lsn,
            activity=r.activity,
            attrs_in=r.attrs_in,
            attrs_out=r.attrs_out,
        )
        for i, r in enumerate(final)
    ]
    if not compacted:
        raise ValueError("nothing salvageable: all records were dropped")
    return Log(compacted), dropped
