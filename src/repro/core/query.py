"""High-level query API.

:class:`Query` bundles pattern, engine, optimizer and cache behind the
interface a downstream application uses::

    from repro import EngineOptions, Query

    q = Query("UpdateRefer -> GetReimburse")
    result = q.run(log)              # IncidentSet
    q.exists(log)                    # short-circuit boolean
    q.count(log)                     # number of incidents
    print(q.explain(log))            # chosen plan + cost estimates

Execution behaviour is configured with one immutable
:class:`~repro.core.options.EngineOptions` value::

    q = Query(pattern, EngineOptions(cache=True, deadline_ms=500))
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any

from repro.core.errors import QueryGovernorError, ReproError
from repro.core.eval.base import Engine
from repro.core.eval.naive import NaiveEngine
from repro.core.eval.tree import render_tree
from repro.core.eval.vectorized import VectorizedEngine, supports_counting
from repro.core.governor import begin_run
from repro.core.incident import IncidentSet
from repro.core.model import Log
from repro.core.optimizer.planner import OptimizedPlan, Optimizer
from repro.core.options import EngineOptions
from repro.core.parser import parse
from repro.core.pattern import Pattern
from repro.obs.tracer import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.manager import QueryCache

__all__ = ["Query", "ENGINES", "engine_class", "execute", "probe", "delta_base"]

#: Registry of engine constructors, keyed by engine name.
ENGINES: dict[str, type[Engine]] = {
    NaiveEngine.name: NaiveEngine,
    VectorizedEngine.name: VectorizedEngine,
}


#: op -> (the engine method a miss runs, what a cached incident set
#: answers in its place)
_OPS = {
    "run": ("evaluate", lambda incidents: incidents),
    "exists": ("exists", bool),
    "count": ("count", len),
}


def engine_class(name: str | None) -> type[Engine]:
    """The engine class registered under ``name``.  ``None`` — what every
    ``engine=`` parameter in the package defaults to — is the production
    join kernel."""
    if name is None:
        return VectorizedEngine
    try:
        return ENGINES[name]
    except KeyError:
        raise ReproError(
            f"unknown engine {name!r}; available: {sorted(ENGINES)}"
        ) from None


def execute(
    options: EngineOptions,
    patterns: Sequence[Pattern],
    op: str,
    body: Callable[[Any], tuple[Any, dict[str, Any]]],
    engine: Engine | None = None,
    **submit: Any,
) -> Any:
    """``body`` as one run under ``options`` of one pattern (:class:`Query`)
    or many (:func:`~repro.exec.batch.evaluate_batch`).  The run begins
    (:func:`~repro.core.governor.begin_run`: the journal's ``submit``
    event, carrying ``submit``, and the governor); ``body`` gets the
    engine to evaluate on, with the governor attached (``engine``, or for
    a batch an untraced join kernel: its trace is its ``batch`` span), and
    returns the run's value and the ``finish`` event's account.  The run
    ends with one terminal event: ``killed`` (with ``submit`` again) when
    the governor stops it, else ``finish``."""
    if engine is None:
        engine = VectorizedEngine(max_incidents=options.max_incidents, metrics=options.metrics)
    recorder, engine.governor = begin_run(options, patterns, op, **submit)
    try:
        value, account = body(engine)
    except QueryGovernorError as exc:
        if recorder is not None:
            recorder.killed(exc, **submit)
        raise
    finally:
        engine.governor = None
    if recorder is not None:
        recorder.finish(**account)
    return value


def probe(
    log: Log,
    patterns: Sequence[Pattern],
    cache: "QueryCache | None",
    options: EngineOptions,
) -> tuple[list[Any], list[Any]]:
    """Per pattern, its result key and what ``cache`` holds for it at
    ``log``'s epoch, under a traced ``cache.result`` span (Nones without a
    cache).  Keyed on the pattern as given: a plan may differ per log, the
    result it computes does not (the optimizer's correctness contract)."""
    if cache is None:
        return [None] * len(patterns), [None] * len(patterns)
    tracer = options.tracer if options.tracer is not None else NULL_TRACER
    keys = [cache.result_key(log, p, max_incidents=options.max_incidents) for p in patterns]
    return keys, [cache.get_result(key, tracer=tracer) for key in keys]


def delta_base(
    log: Log, cache: "QueryCache | None", key: Any
) -> tuple[IncidentSet, set[int]] | None:
    """For a result ``key`` that missed, the base of a delta root
    (:meth:`~repro.core.eval.vectorized.VectorizedEngine.evaluate_all`):
    what ``cache`` holds for it at an earlier epoch of the same store, in
    span form, and the instances with a record since; else None."""
    held = None if key is None else cache.peek_base(key)
    if held is None or held[1].canonical_spans() is None:
        return None
    epoch, incidents = held
    return incidents, {record.wid for record in log.records[epoch:]}


class Query:
    """A compiled incident-pattern query.

    Parameters
    ----------
    pattern:
        A :class:`~repro.core.pattern.Pattern` or a textual expression in
        the query syntax of :mod:`repro.core.parser`.
    options:
        An :class:`~repro.core.options.EngineOptions` value; None for the
        defaults (the join kernel, optimizer on, no cache).

    Attributes
    ----------
    options:
        The resolved :class:`~repro.core.options.EngineOptions`.
    engine:
        The live :class:`~repro.core.eval.base.Engine`.
    cache:
        The resolved :class:`~repro.cache.manager.QueryCache`, or None
        when caching is off.
    last_cache_layer:
        ``"result"`` when the cache served the most recent :meth:`run`,
        :meth:`exists` or :meth:`count`; ``"delta"`` when :meth:`run`
        evaluated only the instances appended to since an earlier epoch's
        cached result; None when it was evaluated whole (cold).  Reported
        by :meth:`explain` and the CLI.
    last_plan:
        The plan :meth:`plan` chose most recently (a cache hit plans
        nothing); :func:`~repro.obs.profile.profile_query` reads it.
    """

    def __init__(
        self,
        pattern: Pattern | str,
        options: EngineOptions | None = None,
    ):
        if isinstance(pattern, str):
            pattern = parse(pattern)
        if not isinstance(pattern, Pattern):
            raise TypeError(f"expected Pattern or str, got {type(pattern).__name__}")
        self.pattern = pattern
        self.options = options if options is not None else EngineOptions()

        from repro.cache.manager import resolve_cache

        self.cache = resolve_cache(self.options.cache)
        self.engine = self._build_engine()
        self.last_cache_layer: str | None = None
        self.last_plan: OptimizedPlan | None = None

    def _build_engine(self) -> Engine:
        opts = self.options
        if isinstance(opts.engine, Engine):
            return opts.engine
        return engine_class(opts.engine)(
            max_incidents=opts.max_incidents,
            tracer=opts.tracer,
            metrics=opts.metrics,
        )

    # -- execution -------------------------------------------------------

    def plan(self, log: Log) -> OptimizedPlan:
        """The (possibly identity) plan chosen for ``log``."""
        if self.options.optimize:
            plan = Optimizer.for_log(log).optimize(self.pattern)
        else:
            plan = OptimizedPlan(
                original=self.pattern,
                optimized=self.pattern,
                original_cost=float("nan"),
                optimized_cost=float("nan"),
                transformations=["optimization disabled"],
            )
        self.last_plan = plan
        return plan

    def _execute(self, op: str, log: Log):
        """The run behind :meth:`run`, :meth:`exists` and :meth:`count`
        (:func:`execute`), on the live engine: cache probe (:func:`probe`)
        → (plan → evaluate) → store.

        The ``finish`` event is the run's whole account: the plan
        (``optimized``, ``changed``) when one was made, and the outcome
        of this run's own cache probe (``cache_result_hits``), never a
        diff of the cache's process-wide counters, which other queries
        move.  A miss that builds the full incident set stores it — a
        ``run``, or a ``count`` the kernel's counting DP cannot do — and a
        ``run`` hit reports the stored stats as its own.  Such a kernel
        miss is a delta root (:func:`delta_base`), joined only on the
        instances appended to since the epoch the cache holds its pattern
        at, when it holds one (``"delta"``).
        """
        method, answer = _OPS[op]
        self.last_cache_layer = None

        def body(engine: Engine) -> tuple[Any, dict[str, Any]]:
            (key,), (hit,) = probe(log, (self.pattern,), self.cache, self.options)
            stats = optimized = None
            if hit is not None:
                self.last_cache_layer = "result"
                value = answer(hit.incidents)
                if op == "run":
                    stats = engine.last_stats = hit.stats
            else:
                optimized = self.plan(log).optimized
                kernel = isinstance(engine, VectorizedEngine)
                call = method
                if op == "count" and not (kernel and supports_counting(optimized)):
                    call = "evaluate"  # it builds the set anyway: run it
                base = delta_base(log, self.cache, key) if kernel and call == "evaluate" else None
                if base is not None:
                    self.last_cache_layer = "delta"
                    (value,), _ = engine.evaluate_all(log, [optimized], [base], forest=False)
                else:
                    value = getattr(engine, call)(log, optimized)
                stats = engine.last_stats
                if call == "evaluate":
                    if key is not None:
                        self.cache.put_result(key, value, stats)
                    value = answer(value)
            account = {"stats": stats, "incidents": len(value) if op == "run" else int(value)}
            if optimized is not None:
                account.update(optimized=str(optimized), changed=optimized != self.pattern)
            if key is not None:
                account["cache_result_hits"] = int(hit is not None)
            if self.last_cache_layer is not None:
                account["cache_layer"] = self.last_cache_layer
            return value, account

        return execute(self.options, (self.pattern,), op, body, self.engine)

    def run(self, log: Log) -> IncidentSet:
        """Evaluate the query, returning the full incident set.

        With caching on, a warm hit returns before the optimizer even
        plans; a cold run is evaluated, stored, and reported through
        :attr:`last_cache_layer`.

        With budgets configured (``deadline_ms``/``max_pairs``) the run
        is governed: the typed
        :class:`~repro.core.errors.QueryTimeout` /
        :class:`~repro.core.errors.QueryBudgetExceeded` carries the
        partial stats, and a configured journal records the lifecycle
        ending in a terminal ``finish`` or ``killed`` event.
        """
        return self._execute("run", log)

    def exists(self, log: Log) -> bool:
        """Whether at least one incident exists (short-circuits when the
        engine supports it)."""
        return self._execute("exists", log)

    def count(self, log: Log) -> int:
        """Number of incidents in ``log``.

        The kernel's output-free counting DP answers a ⊙/⊳ chain of
        leaves; any other count is the size of a :meth:`run`'s set."""
        return self._execute("count", log)

    @staticmethod
    def evaluate_batch(
        log: Log,
        patterns,
        options: EngineOptions | None = None,
    ):
        """Evaluate many queries over one log with shared subpattern
        scans — see :func:`repro.exec.batch.evaluate_batch`, of which
        this is a convenience re-export.

        >>> # doctest: +SKIP
        >>> batch = Query.evaluate_batch(log, ["A -> B", "A -> B -> C"])
        >>> batch.results[0]                    # incidents of "A -> B"
        """
        from repro.exec.batch import evaluate_batch

        return evaluate_batch(log, patterns, options)

    def matching_instances(self, log: Log) -> tuple[int, ...]:
        """The workflow instance ids containing at least one incident."""
        return self.run(log).wids()

    # -- introspection -----------------------------------------------------

    def explain(self, log: Log) -> str:
        """Human-readable execution plan for ``log``: the incident tree of
        the optimized pattern, cost estimates, and — after a cached run —
        which cache layer served it."""
        plan = self.plan(log)
        lines = [
            plan.explain(),
            "incident tree:",
            render_tree(plan.optimized),
            f"engine: {self.engine.name}",
        ]
        if self.cache is not None:
            served = self.last_cache_layer or "none (cold)"
            lines.append(f"cache: {served}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Query({str(self.pattern)!r}, engine={self.engine.name})"
