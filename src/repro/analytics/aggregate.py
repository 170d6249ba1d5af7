"""Counting over incident sets.

The paper's motivating questions are aggregates over incidents — "how many
students *every year* get referrals with balance > $5,000?".  Incident
sets are plain collections, so the aggregate is a helper rather than a new
language operator: :func:`count_by` is the histogram of a key function of
the :class:`~repro.core.incident.Incident`, and :func:`attr_of` builds the
key that reads an attribute off the record matching a given activity
inside each incident.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Hashable, Iterable
from typing import Any

from repro.core.incident import Incident

__all__ = ["count_by", "attr_of"]


def count_by(
    incidents: Iterable[Incident],
    key: Callable[[Incident], Hashable],
) -> Counter:
    """Histogram of ``key`` over the incidents."""
    counts: Counter = Counter()
    for incident in incidents:
        counts[key(incident)] += 1
    return counts


def attr_of(
    activity: str, attribute: str, *, scope: str = "any"
) -> Callable[[Incident], Any]:
    """A key function reading ``attribute`` off the incident's first record
    of ``activity``.

    ``scope`` selects the input map (``"in"``), the output map (``"out"``)
    or either (``"any"``, output preferred).  Returns ``None`` when the
    incident has no such record or the record lacks the attribute.

    Example: count reimbursements by hospital::

        counts = count_by(q.run(log), attr_of("GetRefer", "hospital"))
    """
    if scope not in ("in", "out", "any"):
        raise ValueError("scope must be 'in', 'out' or 'any'")

    def key(incident: Incident) -> Any:
        for record in incident:
            if record.activity != activity:
                continue
            if scope in ("out", "any") and attribute in record.attrs_out:
                return record.attrs_out[attribute]
            if scope in ("in", "any") and attribute in record.attrs_in:
                return record.attrs_in[attribute]
            return None
        return None

    return key
