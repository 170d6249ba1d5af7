"""Unified read-access protocol over log representations.

The engines and the cache used to consume the
concrete :class:`~repro.core.model.Log` (a list of dataclass records)
directly, leaking the object-row layout into every layer.  This module
defines the representation-neutral surface they consume instead:

* :class:`LogView` — the structural protocol both the object-row
  :class:`~repro.core.model.Log` and the columnar
  :class:`~repro.columnar.ColumnarLog` satisfy.  Anything that only
  *reads* a log (engines, planners, statistics, caching identity)
  should accept a ``LogView``;
* :class:`RecordsView` — the immutable record sequence returned by
  ``records``.  It is a :class:`tuple` subclass, so existing callers
  that index/iterate/slice keep working, and it is *callable* (returning
  itself) so the protocol's ``records()`` method form works on both
  representations;
* :class:`ActivitySet` — the analogous callable :class:`frozenset` for
  ``activities``.

The protocol is deliberately small — ``records()``, ``wid_slice()``,
``activities()``, ``wids``, ``epoch`` plus the cache-provenance
attributes — so a new representation only has to answer "which records,
grouped how, from which store state".
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.model import LogRecord

__all__ = ["LogView", "RecordsView", "ActivitySet"]


class RecordsView(tuple):
    """Immutable, callable record sequence (see module docs).

    ``view()`` returns the view itself, so ``log.records`` (legacy
    attribute style) and ``log.records()`` (the :class:`LogView`
    protocol's method style) both work on every implementation.
    """

    __slots__ = ()

    def __call__(self) -> "RecordsView":
        return self

    def __repr__(self) -> str:
        return f"RecordsView({len(self)} records)"


class ActivitySet(frozenset):
    """Immutable, callable activity-name set: ``log.activities`` and
    ``log.activities()`` both yield the set of names."""

    __slots__ = ()

    def __call__(self) -> "ActivitySet":
        return self


@runtime_checkable
class LogView(Protocol):
    """Read-only access protocol over one workflow log.

    Implemented by :class:`~repro.core.model.Log` (object rows) and
    :class:`~repro.columnar.ColumnarLog` (interned columns).  Engines
    consume this protocol only; they never reach into a concrete record
    list.

    ``records()`` and ``activities()`` are written as methods; both
    implementations expose them as properties whose values are callable
    (:class:`RecordsView` / :class:`ActivitySet`), so attribute and call
    style stay interchangeable during the migration.
    """

    # -- content ---------------------------------------------------------

    def records(self) -> Sequence["LogRecord"]:
        """All records in ascending ``lsn`` order."""
        ...

    def wid_slice(self, wid: int) -> Sequence["LogRecord"]:
        """The records of one workflow instance, in ``is_lsn`` order
        (empty when the instance is absent)."""
        ...

    def activities(self) -> frozenset[str]:
        """The set of activity names occurring in the log."""
        ...

    @property
    def wids(self) -> Sequence[int]:
        """All workflow instance ids, sorted ascending."""
        ...

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator["LogRecord"]: ...

    # -- provenance (cache identity, see repro.cache) --------------------

    @property
    def epoch(self) -> int:
        """Append epoch of the originating store at snapshot time."""
        ...

    @property
    def lineage(self) -> str | None:
        """Identity token of the originating store, or None."""
        ...
