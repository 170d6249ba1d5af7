"""One immutable options object for the query facade.

:class:`EngineOptions` consolidates the per-query knobs that used to
sprawl across ``Query.__init__`` keyword arguments (engine, optimize,
max_incidents, tracer, metrics) plus the cache policy into a single
frozen dataclass.  One options value fully determines how a query
executes and can be shared between queries::

    from repro import EngineOptions, Query

    opts = EngineOptions(cache=True, max_pairs=1_000_000)
    q = Query("UpdateRefer -> GetReimburse", opts)

"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.core.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.manager import QueryCache
    from repro.cache.policy import CachePolicy
    from repro.core.eval.base import Engine
    from repro.core.governor import CancelToken
    from repro.obs.journal import QueryJournal
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

__all__ = ["EngineOptions"]


@dataclass(frozen=True)
class EngineOptions:
    """How a query executes: engine, optimizer, caching, budgets and
    observability, as one immutable value.

    Attributes
    ----------
    engine:
        Engine name (``"naive"``/``"vectorized"``), an
        :class:`~repro.core.eval.base.Engine` instance, or None for the
        default: the columnar join kernel.
    optimize:
        Rewrite the pattern per log with the cost-based optimizer before
        evaluation (default True).
    max_incidents:
        Optional cap on materialised incident-set sizes
        (:class:`~repro.core.errors.BudgetExceededError` past it).
    tracer / metrics:
        Observability hooks (:mod:`repro.obs`) forwarded to the engine
        and the cache.
    cache:
        Caching behaviour: None/False — off; True — the process-wide
        shared :func:`~repro.cache.manager.get_default_cache`; a
        :class:`~repro.cache.policy.CachePolicy` — a private cache under
        that policy; a :class:`~repro.cache.manager.QueryCache` — that
        cache, shared with whoever else holds it.  See
        ``docs/CACHING.md``.
    deadline_ms:
        Wall-clock budget per run, in milliseconds.  Converted to an
        absolute deadline at submission and enforced cooperatively in
        every engine (:class:`~repro.core.errors.QueryTimeout` past it).
    max_pairs:
        Budget on pairs examined (Lemma 1's cost driver) per run;
        :class:`~repro.core.errors.QueryBudgetExceeded` past it.
    journal:
        Optional :class:`~repro.obs.journal.QueryJournal` receiving the
        query's lifecycle events (submit/plan/cache/evaluate and a
        terminal finish or killed record).  See ``docs/OBSERVABILITY.md``.
    cancel:
        Optional shared :class:`~repro.core.governor.CancelToken`; when
        an external party sets it, the run raises
        :class:`~repro.core.errors.QueryCancelled` at its next
        cooperative checkpoint (the admin-kill hook behind
        ``DELETE /v1/admin/inflight/{query_id}``).
    """

    engine: "str | Engine | None" = None
    optimize: bool = True
    max_incidents: int | None = None
    tracer: "Tracer | None" = field(default=None, compare=False)
    metrics: "MetricsRegistry | None" = field(default=None, compare=False)
    cache: "QueryCache | CachePolicy | bool | None" = None
    deadline_ms: float | None = None
    max_pairs: int | None = None
    journal: "QueryJournal | None" = field(default=None, compare=False)
    cancel: "CancelToken | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ReproError(f"deadline_ms must be > 0, got {self.deadline_ms}")
        if self.max_pairs is not None and self.max_pairs < 1:
            raise ReproError(f"max_pairs must be >= 1, got {self.max_pairs}")

    @property
    def governed(self) -> bool:
        """Whether any per-run resource budget is configured."""
        return self.deadline_ms is not None or self.max_pairs is not None

    def replace(self, **changes: Any) -> "EngineOptions":
        """A copy with the given fields changed (``dataclasses.replace``)."""
        return replace(self, **changes)

    def __repr__(self) -> str:
        shown = []
        for name in (
            "engine",
            "max_incidents",
            "cache",
            "deadline_ms",
            "max_pairs",
        ):
            value = getattr(self, name)
            if value is not None:
                shown.append(f"{name}={value!r}")
        if not self.optimize:
            shown.append("optimize=False")
        return f"EngineOptions({', '.join(shown)})"
