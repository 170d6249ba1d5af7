"""Cache configuration.

A :class:`CachePolicy` is a frozen value object describing *whether* to
cache and *under which memory budget*; the runtime state lives in
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
    """Whether the query cache keeps results, and how much memory it may
    hold.

    Attributes
    ----------
    enabled:
        The one switch.  An enabled cache keeps whole-query
        :class:`~repro.core.incident.IncidentSet` results, keyed on
        ``(log epoch identity, normalized pattern, result-relevant
        options)``.
    result_budget_bytes:
        LRU byte budget.  Entries are accounted with
        :func:`~repro.cache.sizing.incidents_nbytes`; the least recently
        used entries are evicted once the cache exceeds its budget, and
        an entry larger than the whole budget is rejected outright.
    equivalence_keys:
        Key results on the :func:`repro.analysis.canonical_key`
        equivalence class of the pattern instead of its AC-canonical
        form: queries *proved* algebraically equal — even when no
        syntactic rewrite relates them, e.g. ``A & B`` vs ``(A -> B) |
        (B -> A)`` — share one entry.  Sound (equal keys imply equal
        incident sets on every log) but costs an automaton construction
        per distinct pattern; off by default.  Patterns the prover
        cannot handle fall back to the AC-canonical key.
    """

    enabled: bool = True
    result_budget_bytes: int = DEFAULT_RESULT_BUDGET
    equivalence_keys: bool = False

    def __post_init__(self) -> None:
        if self.result_budget_bytes < 0:
            raise ValueError("cache byte budget must be >= 0")

    def with_budget(self, budget_bytes: int) -> "CachePolicy":
        """This policy with the byte budget set to ``budget_bytes``."""
        return replace(self, result_budget_bytes=budget_bytes)
