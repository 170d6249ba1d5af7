"""A byte-budgeted LRU map.

:class:`LruBytes` is the storage primitive under the result cache: a
plain ``OrderedDict`` in recency order with explicit byte accounting.
Each entry carries the size its creator charged it with
(:mod:`repro.cache.sizing`); inserting past the budget evicts from the
cold end until the total fits again.  An entry that alone exceeds the
budget is *rejected* — storing it would immediately evict everything
else for a value that cannot stay.

The map itself is not thread-safe; :class:`~repro.cache.manager.QueryCache`
serialises access with one lock per cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

__all__ = ["LruBytes"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LruBytes(Generic[K, V]):
    """LRU map bounded by total accounted bytes, not entry count."""

    def __init__(
        self,
        budget_bytes: int,
        *,
        on_evict: Callable[[K, V, int], None] | None = None,
    ) -> None:
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        self.budget_bytes = budget_bytes
        self._entries: OrderedDict[K, tuple[V, int]] = OrderedDict()
        self._on_evict = on_evict
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def get(self, key: K) -> V | None:
        """The cached value, refreshed to most-recently-used; None on miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def peek(self, key: K) -> V | None:
        """The cached value without touching recency or hit counters."""
        entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def put(self, key: K, value: V, nbytes: int) -> bool:
        """Insert (or replace) an entry charged with ``nbytes``.

        Returns False when the entry alone exceeds the budget and was
        rejected; otherwise True, after evicting cold entries as needed.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if nbytes > self.budget_bytes:
            self.rejected += 1
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self.total_bytes -= old[1]
        self._entries[key] = (value, nbytes)
        self.total_bytes += nbytes
        while self.total_bytes > self.budget_bytes and self._entries:
            cold_key, (cold_value, cold_bytes) = self._entries.popitem(last=False)
            self.total_bytes -= cold_bytes
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict(cold_key, cold_value, cold_bytes)
        return True

    def keys(self) -> list[K]:
        """Keys from least to most recently used (for tests/introspection)."""
        return list(self._entries)

    def __repr__(self) -> str:
        return (
            f"LruBytes({len(self._entries)} entries, "
            f"{self.total_bytes}/{self.budget_bytes} bytes, "
            f"{self.hits} hit(s), {self.evictions} eviction(s))"
        )
