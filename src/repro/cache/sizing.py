"""Byte accounting for cached incident data.

The cache's memory budget is enforced on *estimated retained bytes*: the
size of the containers an entry keeps alive beyond the log itself.  Log
records are shared with the source log (never copied by incidents), so
they are charged as one pointer each, not deep size — evicting a cache
entry cannot free the records anyway while the log is alive.

The estimate is deterministic for a given interpreter, which the LRU
tests rely on (same entry, same charge).
"""

from __future__ import annotations

import sys

from repro.core.incident import Incident, IncidentSet

__all__ = [
    "incident_nbytes",
    "incidents_nbytes",
    "POINTER_BYTES",
]

#: Size charged per shared log-record reference.
POINTER_BYTES = 8

#: Flat charge for an entry's key and LRU bookkeeping.
ENTRY_OVERHEAD_BYTES = 64


def incident_nbytes(incident: Incident) -> int:
    """Estimated retained bytes of one cached :class:`Incident`.

    Counts the incident object, its record tuple, its lsn frozenset and
    its sort key, plus one pointer per member record.
    """
    return (
        sys.getsizeof(incident)
        + sys.getsizeof(incident.records)
        + sys.getsizeof(incident.lsns)
        + sys.getsizeof(incident.sort_key)
        + POINTER_BYTES * len(incident)
    )


def incidents_nbytes(incidents: IncidentSet) -> int:
    """Estimated retained bytes of one cache entry: the set's
    bookkeeping, one pointer per member, and the members themselves."""
    return (
        2 * ENTRY_OVERHEAD_BYTES
        + POINTER_BYTES * len(incidents)
        + sum(incident_nbytes(incident) for incident in incidents)
    )
