"""One immutable options object for the query facade.

:class:`EngineOptions` consolidates the per-query knobs that used to
sprawl across ``Query.__init__`` keyword arguments (engine, optimize,
max_incidents, tracer, metrics, jobs, parallel, progress) plus the cache
policy into a single frozen dataclass.  One options value fully
determines how a query executes, can be shared between queries, and
travels unchanged into the parallel executor and the CLI::

    from repro import EngineOptions, Query

    opts = EngineOptions(jobs=4, backend="process", cache=True)
    q = Query("UpdateRefer -> GetReimburse", opts)

"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable

from repro.core.backend import Backend
from repro.core.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.manager import QueryCache
    from repro.cache.policy import CachePolicy
    from repro.core.eval.base import Engine
    from repro.core.governor import CancelToken
    from repro.obs.journal import QueryJournal
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

__all__ = ["EngineOptions", "BACKENDS"]

#: Execution backends accepted by :attr:`EngineOptions.backend` — the
#: string values of :meth:`repro.core.backend.Backend.requestable`.
#: Kept as a plain string tuple for backwards compatibility; prefer the
#: :class:`~repro.core.backend.Backend` members.
BACKENDS: tuple[str, ...] = tuple(m.value for m in Backend.requestable())


@dataclass(frozen=True)
class EngineOptions:
    """How a query executes: engine, optimizer, parallelism, caching and
    observability, as one immutable value.

    Attributes
    ----------
    engine:
        Engine name (``"naive"``/``"vectorized"``/``"sqlite"``), an
        :class:`~repro.core.eval.base.Engine` instance, or None for the
        default: the columnar join kernel.
    optimize:
        Rewrite the pattern per log with the cost-based optimizer before
        evaluation (default True).
    max_incidents:
        Optional cap on materialised incident-set sizes
        (:class:`~repro.core.errors.BudgetExceededError` past it).
    tracer / metrics:
        Observability hooks (:mod:`repro.obs`) forwarded to the engine,
        the parallel executor and the cache.
    jobs:
        Worker count for sharded parallel evaluation; None keeps the
        query serial unless ``backend`` is set (then one worker per CPU).
    backend:
        Execution backend — a :class:`~repro.core.backend.Backend` member
        or its string value (one of :data:`BACKENDS`); None means serial
        evaluation (``"auto"`` when only ``jobs`` is given).  The
        sharded-executor members fan evaluation out over wid shards;
        ``Backend.SQLITE`` pushes the pattern down to SQL over the
        columnar schema instead.  Strings are coerced to members at
        construction.
    strategy:
        Shard-partitioning strategy for parallel runs (``"hash"`` or
        ``"range"``).
    progress:
        Optional ``progress(done, total)`` callback fired per completed
        shard on parallel runs.
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
        query's lifecycle events (submit/plan/cache/shard/evaluate and a
        terminal finish or killed record).  See ``docs/OBSERVABILITY.md``.
    cancel:
        Optional shared :class:`~repro.core.governor.CancelToken`; when
        an external party sets it, the run raises
        :class:`~repro.core.errors.QueryCancelled` at its next
        cooperative checkpoint (the admin-kill hook behind
        ``DELETE /v1/admin/inflight/{query_id}``).  Serial and thread
        backends only — the token does not pickle.
    """

    engine: "str | Engine | None" = None
    optimize: bool = True
    max_incidents: int | None = None
    tracer: "Tracer | None" = field(default=None, compare=False)
    metrics: "MetricsRegistry | None" = field(default=None, compare=False)
    jobs: int | None = None
    backend: "Backend | str | None" = None
    strategy: str = "hash"
    progress: Callable[[int, int], None] | None = field(
        default=None, compare=False
    )
    cache: "QueryCache | CachePolicy | bool | None" = None
    deadline_ms: float | None = None
    max_pairs: int | None = None
    journal: "QueryJournal | None" = field(default=None, compare=False)
    cancel: "CancelToken | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.backend is not None:
            object.__setattr__(self, "backend", Backend.coerce(self.backend))
        if self.backend is Backend.SQLITE:
            if self.engine is not None and self.engine != "sqlite":
                raise ReproError(
                    f"backend='sqlite' selects the SQL pushdown engine; "
                    f"it cannot be combined with engine={self.engine!r}"
                )
            if self.jobs is not None:
                raise ReproError(
                    "backend='sqlite' evaluates in-database; "
                    "it cannot be combined with jobs"
                )
        if self.jobs is not None and self.jobs < 1:
            raise ReproError(f"jobs must be >= 1, got {self.jobs}")
        if self.strategy not in ("hash", "range"):
            raise ReproError(
                f"unknown shard strategy {self.strategy!r}; "
                f"available: ('hash', 'range')"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ReproError(f"deadline_ms must be > 0, got {self.deadline_ms}")
        if self.max_pairs is not None and self.max_pairs < 1:
            raise ReproError(f"max_pairs must be >= 1, got {self.max_pairs}")

    @property
    def governed(self) -> bool:
        """Whether any per-run resource budget is configured."""
        return self.deadline_ms is not None or self.max_pairs is not None

    @property
    def is_parallel(self) -> bool:
        """Whether these options route evaluation through the sharded
        parallel executor.  ``Backend.SQLITE`` is *not* parallel — it
        pushes evaluation into the database instead of sharding."""
        if self.backend is Backend.SQLITE:
            return False
        return self.jobs is not None or self.backend is not None

    def replace(self, **changes: Any) -> "EngineOptions":
        """A copy with the given fields changed (``dataclasses.replace``)."""
        return replace(self, **changes)

    def __repr__(self) -> str:
        shown = []
        for name in (
            "engine",
            "max_incidents",
            "jobs",
            "backend",
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
