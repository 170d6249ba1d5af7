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

from repro.core.errors import QueryGovernorError, ReproError
from repro.core.eval.base import Engine
from repro.core.eval.naive import NaiveEngine
from repro.core.eval.tree import render_tree
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.governor import begin_run
from repro.core.incident import IncidentSet
from repro.core.model import Log
from repro.core.optimizer.planner import OptimizedPlan, Optimizer
from repro.core.options import EngineOptions
from repro.core.parser import parse
from repro.core.pattern import Pattern
from repro.obs.tracer import NULL_TRACER

__all__ = ["Query", "ENGINES", "engine_class"]

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

    def _result_key(self, log: Log):
        """The cache key for this query over ``log``, or None when
        caching is off.  Keyed on the *original* pattern: the
        cost-based plan may differ per log, but the result it computes
        does not (that is the optimizer's correctness contract)."""
        if self.cache is None:
            return None
        return self.cache.result_key(
            log, self.pattern, max_incidents=self.options.max_incidents
        )

    def _cached_result(self, key):
        if key is None:
            return None
        tracer = self.options.tracer if self.options.tracer is not None else NULL_TRACER
        return self.cache.get_result(key, tracer=tracer)

    def _delta_base(self, op: str, key):
        """``(epoch, incidents)`` a kernel ``run`` that missed can start
        from — what the cache holds for this query at an earlier epoch of
        the same store, in span form — or None: then the log is evaluated
        whole."""
        if op != "run" or key is None or not isinstance(self.engine, VectorizedEngine):
            return None
        base = self.cache.peek_base(key)
        if base is None or base[1].canonical_spans() is None:
            return None
        return base

    def _execute(self, op: str, log: Log):
        """The one run scaffold behind :meth:`run`, :meth:`exists` and
        :meth:`count`: begin (``submit``) → cache probe → (plan →
        evaluate) → terminal ``finish`` / ``killed`` event.  The run's
        governor (see :func:`~repro.core.governor.begin_run`) is attached
        to the live engine for the duration of the run.

        The ``finish`` event is the run's whole account: the plan
        (``optimized``, ``changed``) when one was made, and the outcome
        of this run's own cache probe (``cache_result_hits``), never a
        diff of the cache's process-wide counters, which other queries
        move.  Only ``run`` produces a full incident set, so only ``run``
        stores one — and, on a hit, reports the stored stats as its own.
        A kernel ``run`` that misses evaluates only the instances
        appended to since the epoch the cache holds its pattern at, when
        it holds one (``"delta"``).
        """
        engine_method, from_cached = _OPS[op]
        self.last_cache_layer = None
        recorder, self.engine.governor = begin_run(self.options, (self.pattern,), op)
        try:
            key = self._result_key(log)
            hit = self._cached_result(key)
            stats = optimized = None
            if hit is not None:
                self.last_cache_layer = "result"
                value = from_cached(hit.incidents)
                if op == "run":
                    stats = self.engine.last_stats = hit.stats
            else:
                optimized = self.plan(log).optimized
                base = self._delta_base(op, key)
                if base is not None:
                    self.last_cache_layer = "delta"
                    epoch, incidents = base
                    touched = {record.wid for record in log.records[epoch:]}
                    value = self.engine.evaluate_delta(log, optimized, incidents, touched)
                else:
                    value = getattr(self.engine, engine_method)(log, optimized)
                stats = self.engine.last_stats
                if op == "run" and key is not None:
                    self.cache.put_result(key, value, stats)
            if recorder is not None:
                payload = {}
                if optimized is not None:
                    payload["optimized"] = str(optimized)
                    payload["changed"] = optimized != self.pattern
                if key is not None:
                    payload["cache_result_hits"] = int(hit is not None)
                if self.last_cache_layer is not None:
                    payload["cache_layer"] = self.last_cache_layer
                recorder.finish(
                    stats=stats,
                    incidents=len(value) if op == "run" else int(value),
                    **payload,
                )
            return value
        except QueryGovernorError as exc:
            if recorder is not None:
                recorder.killed(exc)
            raise
        finally:
            self.engine.governor = None

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

        Delegates to the engine, which may use the output-free counting
        DP for ⊙/⊳ chains instead of materialising the incident set."""
        return self._execute("count", log)

    @staticmethod
    def evaluate_batch(
        log: Log,
        patterns,
        options: EngineOptions | None = None,
        *,
        analyze: bool = True,
    ):
        """Evaluate many queries over one log with shared subpattern
        scans — see :func:`repro.exec.batch.evaluate_batch`, of which
        this is a convenience re-export.

        >>> # doctest: +SKIP
        >>> batch = Query.evaluate_batch(log, ["A -> B", "A -> B -> C"])
        >>> batch.results[0]                    # incidents of "A -> B"
        """
        from repro.exec.batch import evaluate_batch

        return evaluate_batch(log, patterns, options, analyze=analyze)

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
