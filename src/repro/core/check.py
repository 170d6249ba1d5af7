"""Incident membership checking and provenance.

Evaluation answers "what are the incidents of p?"; this module answers
the converse questions:

* :func:`is_incident` — is this *specific* set of records an incident of
  ``p`` (Definition 4 membership, without evaluating the whole log)?
* :func:`assignment` — if so, *why*: a mapping from each pattern leaf to
  the record it matched (a witness derivation).

Checking is a small constraint search over the pattern tree: a record
set belongs to ``incL(p)`` iff it can be split per Definition 4's
recursive cases.  Sets are tiny (pattern-sized), so the exponential
worst case of the search is irrelevant in practice.

Uses: verifying results imported from other tools, and as an independent
oracle in the test-suite — ``tests/test_properties.py`` puts every
incident the join kernel returns through :func:`is_incident`, a code path
that shares nothing with the engines.  No entry point imports it
(``docs/REACHABILITY.md``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.core.incident import Incident
from repro.core.model import LogRecord
from repro.core.pattern import (
    Atomic,
    Choice,
    Consecutive,
    Parallel,
    Pattern,
    Sequential,
)

__all__ = ["is_incident", "assignment", "Derivation"]

#: A witness: (leaf position in pre-order, leaf, matched record) triples.
Derivation = list[tuple[int, Atomic, LogRecord]]


def _splits(
    records: tuple[LogRecord, ...]
) -> Iterator[tuple[tuple[LogRecord, ...], tuple[LogRecord, ...]]]:
    """All two-part partitions of ``records`` into nonempty subsets.

    Records are position-sorted; subsets keep that order.  2^(n-1)-1
    candidate splits — fine for incident-sized sets.
    """
    n = len(records)
    for mask in range(1, 2**n - 1):
        left = tuple(records[i] for i in range(n) if mask & (1 << i))
        right = tuple(records[i] for i in range(n) if not mask & (1 << i))
        yield left, right


def _derive(
    pattern: Pattern,
    records: tuple[LogRecord, ...],
    leaf_offset: int,
) -> Iterator[Derivation]:
    """Yield witness derivations of ``records`` as an incident of
    ``pattern`` (possibly none)."""
    if isinstance(pattern, Atomic):
        if len(records) == 1 and pattern.matches(records[0]):
            yield [(leaf_offset, pattern, records[0])]
        return

    if isinstance(pattern, Choice):
        left_leaves = pattern.left.size
        yield from _derive(pattern.left, records, leaf_offset)
        yield from _derive(pattern.right, records, leaf_offset + left_leaves)
        return

    assert isinstance(pattern, (Consecutive, Sequential, Parallel))
    left_leaves = pattern.left.size
    for left, right in _splits(records):
        if isinstance(pattern, (Consecutive, Sequential)):
            last_left = max(r.is_lsn for r in left)
            first_right = min(r.is_lsn for r in right)
            if not pattern.gap_ok(last_left, first_right):
                continue
        # (⊕ needs only disjointness, which a partition guarantees)
        for left_derivation in _derive(pattern.left, left, leaf_offset):
            for right_derivation in _derive(
                pattern.right, right, leaf_offset + left_leaves
            ):
                yield left_derivation + right_derivation


def _as_records(
    records: Incident | Iterable[LogRecord],
) -> tuple[LogRecord, ...] | None:
    if isinstance(records, Incident):
        return records.records
    items = sorted(records, key=lambda r: r.is_lsn)
    if not items:
        return None
    wid = items[0].wid
    if any(r.wid != wid for r in items):
        return None
    if len({r.is_lsn for r in items}) != len(items):
        return None
    return tuple(items)


def is_incident(
    pattern: Pattern, records: Incident | Iterable[LogRecord]
) -> bool:
    """Definition 4 membership: is this record set an incident of
    ``pattern``?  (Record sets spanning instances are never incidents.)"""
    items = _as_records(records)
    if items is None:
        return False
    return next(_derive(pattern, items, 0), None) is not None


def assignment(
    pattern: Pattern, records: Incident | Iterable[LogRecord]
) -> Derivation | None:
    """A witness derivation, or None when the set is not an incident.

    The derivation lists ``(leaf_index, leaf, record)`` triples with
    ``leaf_index`` the leaf's left-to-right position in the pattern —
    e.g. for ``SeeDoctor -> (UpdateRefer -> GetReimburse)`` and the
    paper's incident ``{l13, l14, l20}``::

        [(0, SeeDoctor, l13), (1, UpdateRefer, l14), (2, GetReimburse, l20)]
    """
    items = _as_records(records)
    if items is None:
        return None
    derivation = next(_derive(pattern, items, 0), None)
    if derivation is None:
        return None
    return sorted(derivation, key=lambda triple: triple[0])
