"""Cache configuration.

A :class:`CachePolicy` is a frozen value object describing the memory
budget of a result cache; the runtime state lives in
:class:`~repro.cache.manager.QueryCache`.  Policies travel inside
:class:`~repro.core.options.EngineOptions`, so one immutable options
object fully determines a query's caching behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CachePolicy", "DEFAULT_RESULT_BUDGET"]

#: Default byte budget of the result cache (32 MiB).
DEFAULT_RESULT_BUDGET = 32 * 1024 * 1024


@dataclass(frozen=True)
class CachePolicy:
    """How much memory a query cache may hold.  The cache keeps
    whole-query :class:`~repro.core.incident.IncidentSet` results, keyed
    on ``(log epoch identity, normalized pattern, result-relevant
    options)``; caching is off when an options object carries no cache
    (``cache=None`` / ``False``).

    Attributes
    ----------
    result_budget_bytes:
        LRU byte budget.  Entries are accounted with
        :func:`~repro.cache.sizing.incidents_nbytes`; the least recently
        used entries are evicted once the cache exceeds its budget, and
        an entry larger than the whole budget is rejected outright.
    """

    result_budget_bytes: int = DEFAULT_RESULT_BUDGET

    def __post_init__(self) -> None:
        if self.result_budget_bytes < 0:
            raise ValueError("cache byte budget must be >= 0")

    def with_budget(self, budget_bytes: int) -> "CachePolicy":
        """This policy with the byte budget set to ``budget_bytes``."""
        return replace(self, result_budget_bytes=budget_bytes)
