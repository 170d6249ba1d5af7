"""The query result cache.

:class:`QueryCache` maps ``(log identity, normalized pattern,
result-relevant options)`` to a finished, canonically ordered
:class:`~repro.core.incident.IncidentSet` (plus a detached copy of the
evaluation's :class:`~repro.core.eval.base.EvaluationStats` for
``explain``), under one byte budget and one lock.

Log identity comes from the epoch counters threaded through
:class:`~repro.core.model.Log` / :class:`~repro.logstore.store.LogStore`:
a complete store snapshot is identified by ``(lineage, epoch)``; logs
without store provenance fall back to a content fingerprint.  A lineage
only moves forward, so the cache keeps one entry per ``(lineage,
pattern, options)``, the newest epoch's: storing a result for epoch *n*
replaces the one held for an earlier epoch, and a result that arrives for
an epoch already superseded is not stored.  A store that takes appends
thus holds as many entries as a static one, one per distinct pattern,
and the entry of an earlier epoch is what the next evaluation of its
pattern starts from (:meth:`QueryCache.peek_base`).

Hit/miss/eviction counts mirror into an optional
:class:`~repro.obs.metrics.MetricsRegistry` as the ``cache.*`` family
(and from there into the Prometheus exposition); lookups can be traced
as ``cache.result`` spans.  All public methods are thread-safe.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.logstore.store import LogStore as LogSource

from repro.cache.lru import LruBytes
from repro.cache.policy import CachePolicy
from repro.cache.sizing import incidents_nbytes
from repro.core.eval.base import EvaluationStats
from repro.core.incident import IncidentSet
from repro.core.model import Log
from repro.core.algebra import canonicalize
from repro.core.optimizer.rules import normalize
from repro.core.pattern import Pattern
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "CachedResult",
    "QueryCache",
    "get_default_cache",
    "resolve_cache",
]

#: Hashable identity of a whole log, see :meth:`QueryCache.log_identity`.
LogIdentity = tuple[str, ...]

#: Full key of one cache entry.  The pattern component is the
#: AC-canonical pattern, or — under ``policy.equivalence_keys`` — an
#: ``("eqclass", digest)`` pair naming the proved equivalence class.
ResultKey = tuple[LogIdentity, Any, tuple[Any, ...]]


@functools.lru_cache(maxsize=1024)
def _equivalence_class_key(pattern: Pattern) -> str | None:
    """The prover's canonical language key for ``pattern``, or ``None``
    when the prover cannot decide it (state budget, unsupported
    operator) — callers then fall back to the AC-canonical key."""
    from repro.analysis import AnalysisError, canonical_key

    try:
        return canonical_key(pattern)
    except AnalysisError:
        return None


def _detach_stats(stats: EvaluationStats | None) -> EvaluationStats | None:
    """A registry-free copy safe to keep in (and hand out of) the cache."""
    if stats is None:
        return None
    return EvaluationStats(
        operator_evals=stats.operator_evals,
        pairs_examined=stats.pairs_examined,
        incidents_produced=stats.incidents_produced,
        max_live_incidents=stats.max_live_incidents,
        per_operator=dict(stats.per_operator),
    )


def _slot(key: ResultKey) -> tuple[ResultKey, int | None]:
    """Where ``key``'s entry is kept, and the epoch it must be of.

    A lineage's snapshots of every epoch share the slot of their pattern
    and options, which holds the newest epoch stored; a
    content-fingerprint identity is a slot of its own, of no epoch."""
    identity, pattern, options = key
    if identity[0] == "lineage":
        return (identity[:2], pattern, options), int(identity[2])
    return key, None


@dataclass(frozen=True)
class CachedResult:
    """One cache hit: the incident set and a detached copy of the
    stats recorded when it was computed (None for results stored without
    stats)."""

    incidents: IncidentSet
    stats: EvaluationStats | None = field(default=None, compare=False)


class QueryCache:
    """Memory-bounded result cache (see module docs).

    Parameters
    ----------
    policy:
        The :class:`~repro.cache.policy.CachePolicy` carrying the switch
        and the byte budget; defaults to the default (on) policy.
    metrics:
        Optional registry receiving the ``cache.*`` counter/gauge
        family.  Set at construction so every consumer of a shared cache
        observes the same counters.
    """

    def __init__(
        self,
        policy: CachePolicy | None = None,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.policy = policy if policy is not None else CachePolicy()
        self.metrics = metrics
        self._lock = threading.RLock()
        #: slot -> (epoch, entry); see :func:`_slot`
        self._results: LruBytes[ResultKey, tuple[int | None, CachedResult]] = LruBytes(
            self.policy.result_budget_bytes
        )

    # -- key construction --------------------------------------------------

    @staticmethod
    def log_identity(log: "Log | LogSource") -> LogIdentity:
        """Hashable whole-log identity.

        ``("lineage", <store id>, <epoch>)`` for complete store
        snapshots and for live stores themselves (a store *is* its full
        content) — append-only stores bump their epoch per record, so
        this is exact and O(1).  Other logs use the (cached) content
        fingerprint, which is always sound but costs one pass on first
        use per :class:`Log` instance.

        The identity is duck-typed on the provenance attributes
        (``lineage``/``epoch`` plus ``is_snapshot``/``fingerprint``), so a
        :class:`~repro.columnar.ColumnarLog` — which delegates all four
        to its source log — keys identically to that source: warm
        entries are shared across representations.
        """
        if log.lineage is not None and getattr(log, "is_snapshot", True):
            return ("lineage", log.lineage, str(log.epoch))
        return ("content", log.fingerprint)

    def result_key(
        self,
        log: "Log | LogSource",
        pattern: Pattern,
        *,
        max_incidents: int | None = None,
    ) -> ResultKey:
        """The cache key for evaluating ``pattern`` over ``log``.

        The pattern goes through the optimizer's shared
        :func:`~repro.core.optimizer.rules.normalize` and then the
        algebra's :func:`~repro.core.algebra.canonicalize`, so queries
        equal under the paper's associativity/commutativity/interchange
        laws (Theorems 2–4, plus choice idempotence) share one entry.
        ``max_incidents`` participates because a budget changes
        observable behaviour (a cached over-budget result must not mask
        the error).

        Under ``policy.equivalence_keys`` the pattern component is the
        prover's :func:`repro.analysis.canonical_key` instead — the
        minimal-DFA digest of the pattern's marked-trace language — so
        *proved*-equivalent queries share one entry even when no AC
        rewrite relates them.  Falls back to the AC-canonical key when
        the prover cannot handle the pattern.
        """
        normalized, _ = normalize(pattern)
        if self.policy.equivalence_keys:
            eq_key = _equivalence_class_key(normalized)
            if eq_key is not None:
                return (
                    self.log_identity(log),
                    ("eqclass", eq_key),
                    ("max_incidents", max_incidents),
                )
        canonical = canonicalize(normalized)
        return (self.log_identity(log), canonical, ("max_incidents", max_incidents))

    # -- lookup and store -------------------------------------------------

    def get_result(
        self,
        key: ResultKey,
        *,
        tracer: Tracer | NullTracer = NULL_TRACER,
    ) -> CachedResult | None:
        """Cache lookup; None on miss.  Hits hand out a *fresh* stats
        copy, so callers may mutate it freely."""
        if not self.policy.enabled:
            return None
        slot, epoch = _slot(key)
        with tracer.span("cache.result", key=()) as span:
            with self._lock:
                held = self._results.peek(slot)
                if held is not None and held[0] == epoch:
                    _, cached = self._results.get(slot)
                else:  # empty, or filled for another epoch
                    self._results.misses += 1
                    cached = None
            span.add(hit=1 if cached is not None else 0)
        self._publish()
        if cached is None:
            return None
        return CachedResult(
            incidents=cached.incidents, stats=_detach_stats(cached.stats)
        )

    def peek_base(self, key: ResultKey) -> tuple[int, IncidentSet] | None:
        """What is held for ``key``'s lineage, pattern and options at an
        epoch before ``key``'s, as ``(epoch, incidents)``; None when
        nothing is, or ``key`` names no lineage.  Neither a hit nor a
        miss, and recency is left alone: the caller still has to
        evaluate, from this."""
        slot, epoch = _slot(key)
        if epoch is None or not self.policy.enabled:
            return None
        with self._lock:
            held = self._results.peek(slot)
        if held is None or held[0] >= epoch:
            return None
        return held[0], held[1].incidents

    def put_result(
        self,
        key: ResultKey,
        incidents: IncidentSet,
        stats: EvaluationStats | None = None,
    ) -> bool:
        """Store a finished result; returns False when it is not kept:
        larger than the whole budget, the cache off, or computed over an
        epoch older than the one its slot is filled for.

        A result for a newer epoch replaces the slot's older one (a plain
        replacement, not an LRU eviction).  Content-fingerprint
        identities carry no order; each is its own slot, left to the LRU.
        """
        if not self.policy.enabled:
            return False
        entry = CachedResult(incidents=incidents, stats=_detach_stats(stats))
        nbytes = incidents_nbytes(incidents)
        slot, epoch = _slot(key)
        with self._lock:
            held = self._results.peek(slot)
            if held is not None and epoch is not None and epoch < held[0]:
                return False
            stored = self._results.put(slot, (epoch, entry), nbytes)
        self._publish()
        return stored

    # -- observability -----------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Counter snapshot (for tests, the CLI and ``/v1/admin/cache``)."""
        with self._lock:
            return {
                "result_hits": self._results.hits,
                "result_misses": self._results.misses,
                "result_evictions": self._results.evictions,
                "result_rejected": self._results.rejected,
                "result_entries": len(self._results),
                "result_bytes": self._results.total_bytes,
            }

    def hot_keys(self, *, limit: int = 10) -> dict[str, list[str]]:
        """The most-recently-served keys, hottest first.

        "Hot" is LRU recency (the eviction order reversed) — the admin
        cache endpoint's view of what the cache is actually earning its
        bytes on.  Keys are rendered to strings; they are identifiers,
        not reconstructable values.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        with self._lock:
            slots = self._results.keys()[-limit:]
            held = [(slot, self._results.peek(slot)[0]) for slot in reversed(slots)]
        return {
            "results": [
                str(slot) if epoch is None else f"{slot} @ epoch {epoch}"
                for slot, epoch in held
            ]
        }

    def _publish(self) -> None:
        """Mirror the counters into the bound registry.

        Counters are monotone totals, so publishing sets them by
        incrementing the registry counter up to the current value —
        cheap (two dict lookups per metric) and idempotent.
        """
        registry = self.metrics
        if registry is None:
            return
        with self._lock:
            snapshot = self.stats()
        for name, value in snapshot.items():
            metric_name = "cache." + name.replace("_", ".", 1)
            if name.endswith(("entries", "bytes")):
                registry.gauge(metric_name).set(value)
            else:
                counter = registry.counter(metric_name)
                if value > counter.value:
                    counter.inc(value - counter.value)

    def __repr__(self) -> str:
        snapshot = self.stats()
        return (
            f"QueryCache(results={snapshot['result_entries']} entries/"
            f"{snapshot['result_bytes']}B)"
        )


# ---------------------------------------------------------------------------
# The process-wide shared cache and the facade's resolution rules.
# ---------------------------------------------------------------------------

_default_cache: QueryCache | None = None
_default_lock = threading.Lock()


def get_default_cache() -> QueryCache:
    """The process-wide shared :class:`QueryCache` (default policy),
    created on first use.  ``Query(..., cache=True)`` and the CLI's
    ``--cache`` resolve here, so separate queries share warm state."""
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            _default_cache = QueryCache()
        return _default_cache


def resolve_cache(
    setting: "QueryCache | CachePolicy | bool | None",
) -> QueryCache | None:
    """Resolve an :class:`~repro.core.options.EngineOptions` cache
    setting to a live cache (or None for caching off).

    * ``None`` / ``False`` — caching off;
    * ``True`` — the process-wide shared cache, default policy;
    * a :class:`CachePolicy` — a *private* cache under that policy
      (disabled policies resolve to None);
    * a :class:`QueryCache` — used as given (share one instance across
      queries for cross-query hits).
    """
    if setting is None or setting is False:
        return None
    if setting is True:
        return get_default_cache()
    if isinstance(setting, CachePolicy):
        return QueryCache(setting) if setting.enabled else None
    if isinstance(setting, QueryCache):
        return setting if setting.policy.enabled else None
    raise TypeError(
        f"cache must be a QueryCache, CachePolicy, bool or None, "
        f"got {type(setting).__name__}"
    )
