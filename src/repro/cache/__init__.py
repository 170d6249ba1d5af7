"""Memory-bounded query result caching (``repro.cache``).

One :class:`QueryCache` keeps whole-query
:class:`~repro.core.incident.IncidentSet` results, keyed on the
normalized pattern, the log's epoch identity and the result-relevant
options.

Invalidation is epoch-based: append-only stores bump an epoch per
record and snapshots are stamped with ``(lineage, epoch)``, so a result
stored for a newer epoch retires the lineage's older entries.  What is
left is LRU-evicted under one configurable byte budget
(:class:`CachePolicy`), and all hit/miss/eviction activity is
observable through :mod:`repro.obs`.

See ``docs/CACHING.md`` for the full model.
"""

from repro.cache.lru import LruBytes
from repro.cache.manager import (
    CachedResult,
    QueryCache,
    get_default_cache,
    reset_default_cache,
    resolve_cache,
)
from repro.cache.policy import DEFAULT_RESULT_BUDGET, CachePolicy
from repro.cache.sizing import incident_nbytes, incidents_nbytes

__all__ = [
    "CachePolicy",
    "CachedResult",
    "DEFAULT_RESULT_BUDGET",
    "LruBytes",
    "QueryCache",
    "get_default_cache",
    "incident_nbytes",
    "incidents_nbytes",
    "reset_default_cache",
    "resolve_cache",
]
