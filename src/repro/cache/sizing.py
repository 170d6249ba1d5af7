"""Byte accounting for cached incident data.

The cache's memory budget is enforced on *retained bytes*: the size of
the containers an entry keeps alive beyond the log itself.  Log records
and columns are shared with the source log (never copied by a result),
so they are not charged — evicting a cache entry cannot free them
anyway while the log is alive.

The charge is deterministic for a given interpreter, which the LRU
tests rely on (same entry, same charge).
"""

from __future__ import annotations

import sys

from repro.core.incident import IncidentSet

__all__ = ["incidents_nbytes", "POINTER_BYTES"]

#: Size charged per shared log-record reference.
POINTER_BYTES = 8

#: Flat charge for an entry's key and LRU bookkeeping.
ENTRY_OVERHEAD_BYTES = 64

#: A tuple's size with no item, what each item adds, and a triple's.
_TUPLE = sys.getsizeof(())
_SLOT = sys.getsizeof((0,)) - _TUPLE
_TRIPLE = sys.getsizeof((0, 0, 0))


def incidents_nbytes(incidents: IncidentSet) -> int:
    """Retained bytes of one cache entry.

    A kernel result is charged for what it stores: its canonical span
    form, container by container (the positions inside are small
    integers shared with the interpreter or the log's leaf index, charged
    as the pointers the tuples already hold).  Sizing puts the set into
    that one form, so the charge is the same before and after any hit.
    The containers are tuples, whose size is ``getsizeof(())`` plus one
    pointer per item, so the charge is summed from their lengths without
    visiting the position tuples one by one.
    A set built from :class:`Incident` objects is charged its
    bookkeeping, one pointer per member, and the members themselves: each
    incident object, its record tuple, its lsn frozenset and its sort key,
    plus one pointer per member record.
    """
    spans = incidents.canonical_spans()
    if spans is None:
        return (
            2 * ENTRY_OVERHEAD_BYTES
            + POINTER_BYTES * len(incidents)
            + sum(
                sys.getsizeof(incident)
                + sys.getsizeof(incident.records)
                + sys.getsizeof(incident.lsns)
                + sys.getsizeof(incident.sort_key)
                + POINTER_BYTES * len(incident)
                for incident in incidents
            )
        )
    getsizeof = sys.getsizeof
    # per window: the (wid, lo, tuples) triple and the tuple of tuples
    total = 2 * ENTRY_OVERHEAD_BYTES + getsizeof(spans) + len(spans) * (_TRIPLE + _TUPLE)
    for wid, lo, tuples in spans:
        total += (
            getsizeof(wid)
            + getsizeof(lo)
            + (_TUPLE + _SLOT) * len(tuples)
            + _SLOT * sum(map(len, tuples))
        )
    return total
