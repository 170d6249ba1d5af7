"""Shared-scan evaluation of multiple queries in one pass.

Workloads that monitor a log usually run *families* of related queries —
the same clinical pathway with different suffixes, the same prefix with
different windows.  Evaluating them independently recomputes every
shared subpattern once per query.  :func:`evaluate_batch` instead:

1. canonicalises every pattern with the optimizer's rule-based
   :func:`~repro.core.optimizer.rules.normalize` (associativity and
   commutativity rewrites bring structurally equal subpatterns to one
   canonical shape, maximising cross-query sharing);
2. evaluates all patterns with one sharing join kernel per shard — a
   :class:`~repro.core.eval.vectorized.VectorizedEngine` with
   ``share=True``, whose per-``(instance, subpattern)`` results are
   kept across the batch, so a composite subpattern shared by several
   queries (or appearing twice in one) is joined exactly once;
3. runs the :mod:`repro.analysis` subsumption planner over the still-
   pending queries (``analyze=True``): queries *proved* equivalent to a
   sibling alias its result set outright, and queries proved strictly
   contained in a sibling skip their scan — the subsuming query is
   evaluated once and the subsumed one derived by filtering its
   incidents through an exact membership matcher;
4. optionally fans the shared scan out over wid-disjoint shards
   (``jobs``/``backend``, same machinery as
   :class:`~repro.exec.parallel.ParallelExecutor`).

The observable guarantee, asserted in ``tests/exec/test_batch.py`` and
``tests/exec/test_batch_subsumption.py``: the per-query incident sets
equal independent evaluation byte for byte — subsumption derivation is
exact, because ``p ⊑ q`` makes filtering ``incL(q)`` through ``p``'s
matcher yield precisely ``incL(p)`` — while ``stats.pairs_examined``
shrinks whenever any subpattern is shared or any query is subsumed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.errors import QueryGovernorError
from repro.core.eval.base import EvaluationStats
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.governor import CancelToken, QueryContext, ResourceGovernor
from repro.core.incident import Incident, IncidentSet
from repro.core.model import Log
from repro.core.optimizer.rules import normalize
from repro.core.parser import parse
from repro.core.pattern import Pattern
from repro.exec.backends import make_backend
from repro.exec.shard import plan_shards
from repro.obs.journal import QueryJournal, RunRecorder, make_event
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = ["BatchResult", "evaluate_batch"]


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one batch evaluation.

    ``results[i]`` is the incident set of ``patterns[i]`` (input order);
    ``stats`` aggregates the work over all queries and shards;
    ``shared_hits`` counts node evaluations elided by subpattern sharing.
    """

    patterns: tuple[Pattern, ...]
    results: tuple[IncidentSet, ...]
    stats: EvaluationStats
    shared_hits: int
    backend: str
    jobs: int
    cache_hits: int = 0
    #: queries that skipped their own log scan because the subsumption
    #: planner proved them equivalent to / contained in a sibling
    subsumed: int = 0
    #: successful containment/equivalence proofs the planner used
    proofs: int = 0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __repr__(self) -> str:
        return (
            f"BatchResult({len(self.results)} query(ies), "
            f"{self.shared_hits} shared hit(s), "
            f"{self.subsumed} subsumed, backend={self.backend})"
        )


@dataclass(frozen=True)
class _BatchShardTask:
    """Work unit: all patterns over one shard.

    ``cache`` carries the shared :class:`~repro.cache.manager.QueryCache`
    for in-process backends only — a live cache cannot cross a process
    boundary, so process-pool tasks always ship with ``cache=None``
    (which also keeps the task picklable).  ``ctx``/``cancel``/``journal``
    mirror :class:`~repro.exec.worker.ShardTask`: the query context's
    budgets are enforced by a worker-local governor inside the shared
    scan, and ``cancel`` is never set on process-pool tasks.
    """

    shard_index: int
    log: Log
    patterns: tuple[Pattern, ...]
    max_incidents: int | None = None
    cache: object | None = None
    ctx: QueryContext | None = None
    cancel: CancelToken | None = field(default=None, compare=False)
    journal: bool = False


@dataclass(frozen=True)
class _BatchShardOutcome:
    shard_index: int
    per_query: tuple[tuple[Incident, ...], ...]
    stats: EvaluationStats
    shared_hits: int
    events: tuple[dict, ...] = ()


def evaluate_batch_shard(task: _BatchShardTask) -> _BatchShardOutcome:
    """Shared-scan all patterns over one shard (module-level for pickling)."""
    governor = (
        ResourceGovernor.from_context(task.ctx, cancel=task.cancel)
        if task.ctx is not None
        else None
    )
    wall0, cpu0 = time.perf_counter(), time.process_time()
    engine = VectorizedEngine(
        share=True,
        cache=task.cache,
        max_incidents=task.max_incidents,
        governor=governor,
    )
    per_query: list[tuple[Incident, ...]] = []
    stats = EvaluationStats()
    for pattern in task.patterns:
        per_query.append(tuple(engine.evaluate(task.log, pattern)))
        if engine.last_stats is not None:
            stats.merge(engine.last_stats)
            if governor is not None:
                # each evaluate() starts fresh stats; carry the finished
                # pattern's pairs into the governor so max_pairs bounds
                # the whole batch, not each query separately
                governor.charge(engine.last_stats.pairs_examined)
    events: tuple[dict, ...] = ()
    if task.journal and task.ctx is not None:
        events = (
            make_event(
                "evaluate",
                query_id=task.ctx.query_id,
                trace_id=task.ctx.trace_id,
                shard=task.shard_index,
                engine=engine.name,
                mode="batch",
                records=len(task.log),
                pairs=stats.pairs_examined,
                incidents=sum(len(q) for q in per_query),
                wall_ms=(time.perf_counter() - wall0) * 1000.0,
                cpu_ms=(time.process_time() - cpu0) * 1000.0,
            ),
        )
    return _BatchShardOutcome(
        shard_index=task.shard_index,
        per_query=tuple(per_query),
        stats=stats,
        shared_hits=engine.shared_hits,
        events=events,
    )


def evaluate_batch(
    log: Log,
    patterns,
    *,
    optimize: bool = True,
    analyze: bool = True,
    jobs: int = 1,
    backend: str = "serial",
    strategy: str = "hash",
    max_incidents: int | None = None,
    tracer: Tracer | NullTracer | None = None,
    metrics: MetricsRegistry | None = None,
    cache=None,
    deadline_ms: float | None = None,
    max_pairs: int | None = None,
    journal: QueryJournal | None = None,
    cancel: CancelToken | None = None,
) -> BatchResult:
    """Evaluate N queries over one log with shared subpattern scans.

    Parameters
    ----------
    patterns:
        Patterns or query-text strings (mixed freely).
    optimize:
        Apply rule-based canonicalisation before evaluation (default).
        Unlike the per-query cost-based optimizer, normalisation never
        trades sharing away: equal subpatterns stay equal.
    analyze:
        Run the :func:`repro.analysis.plan_subsumption` prover pass over
        the pending queries (default).  Queries proved equivalent to or
        strictly contained in a sibling skip their own scan; their
        incident sets are shared or derived by exact filtering, and the
        returned batch reports them in ``subsumed`` (``proofs`` counts
        the containment proofs used).  Queries the prover cannot handle
        fall back to a normal scan — analysis never fails a batch.
    jobs / backend / strategy:
        Parallel fan-out controls; the default is a single-shard serial
        shared scan.  With ``jobs > 1`` and a pool backend, each shard
        runs its own shared scan and per-query results merge across
        shards in the canonical incident order.
    cache:
        Optional :class:`~repro.cache.manager.QueryCache` (or any value
        :func:`~repro.cache.manager.resolve_cache` accepts).  Queries
        whose result is already cached skip evaluation entirely
        (``cache_hits`` on the returned batch counts them); cold queries
        are evaluated and stored, and — on in-process backends — the
        kernels write through to the persistent memo layer, so hits
        survive across ``evaluate_batch`` calls.
    deadline_ms / max_pairs:
        Per-*batch* resource budgets, enforced cooperatively inside the
        shared scans (the pairs budget spans all queries in the batch).
        Tripping one raises the typed
        :class:`~repro.core.errors.QueryTimeout` /
        :class:`~repro.core.errors.QueryBudgetExceeded`, cancels sibling
        shards, and — with a journal attached — records a terminal
        ``killed`` event.
    journal:
        Optional :class:`~repro.obs.journal.QueryJournal` receiving the
        batch's lifecycle events (one ``query_id`` for the whole batch;
        per-shard ``evaluate`` events stitch in across backends).
    """
    from repro.cache.manager import resolve_cache

    live_cache = resolve_cache(cache)
    resolved: list[Pattern] = []
    for pattern in patterns:
        if isinstance(pattern, str):
            pattern = parse(pattern)
        if optimize:
            pattern, _ = normalize(pattern)
        resolved.append(pattern)
    if not resolved:
        raise ValueError("evaluate_batch needs at least one pattern")

    ctx: QueryContext | None = None
    recorder: RunRecorder | None = None
    if (
        journal is not None
        or deadline_ms is not None
        or max_pairs is not None
        or cancel is not None
    ):
        ctx = QueryContext.new(
            deadline_ms=deadline_ms,
            max_pairs=max_pairs,
            journal=journal is not None,
        )
    if journal is not None and ctx is not None:
        label = (
            str(resolved[0])
            if len(resolved) == 1
            else f"{resolved[0]} (+{len(resolved) - 1} more)"
        )
        recorder = RunRecorder(journal, ctx, pattern=label, op="batch")
        recorder.submit(queries=len(resolved))

    # result-layer pre-pass: finished queries never reach the shard scan
    final: list[IncidentSet | None] = [None] * len(resolved)
    keys: list[object | None] = [None] * len(resolved)
    cache_hits = 0
    if live_cache is not None and live_cache.policy.caches_results:
        for index, pattern in enumerate(resolved):
            key = live_cache.result_key(
                log, pattern, max_incidents=max_incidents
            )
            keys[index] = key
            hit = live_cache.get_result(key)
            if hit is not None:
                final[index] = hit.incidents
                cache_hits += 1
        if recorder is not None:
            recorder.cache_probe(probe="result", hit=cache_hits > 0)
    pending = [i for i in range(len(resolved)) if final[i] is None]

    # subsumption pre-pass: prove containment/equivalence across the
    # pending queries, so subsumed ones never reach the shard scan
    plan = None
    proofs = 0
    if analyze and len(pending) > 1:
        from repro.analysis import AnalysisError, plan_subsumption

        try:
            candidate = plan_subsumption([resolved[i] for i in pending])
        except AnalysisError:
            candidate = None
        if candidate is not None:
            proofs = candidate.proofs
            if candidate.subsumed:
                plan = candidate
    subsumed = plan.subsumed if plan is not None else 0
    scan_positions = (
        list(range(len(pending)))
        if plan is None
        else [p for p, action in enumerate(plan.actions) if action.kind == "scan"]
    )

    backend_name = "serial" if jobs <= 1 else backend
    n_shards = 1 if backend_name == "serial" else max(1, jobs * 2)
    merged_stats = EvaluationStats(registry=metrics)
    shared_hits = 0
    trc = tracer if tracer is not None else NULL_TRACER
    with trc.span("batch", key=()) as span:
        if pending:
            if len(log) == 0 or n_shards == 1:
                shard_logs = [log]
            else:
                shard_logs = [
                    shard.log
                    for shard in plan_shards(log, n_shards, strategy=strategy)
                ]
            # a live cache cannot cross a process boundary; in-process
            # backends share it so the memo layer fills/serves
            task_cache = live_cache if backend_name != "process" else None
            # sibling-cancellation token, in-process backends only (an
            # Event does not pickle; process shards self-enforce via the
            # absolute deadline plus ``cancel_futures``)
            if backend_name == "process":
                shard_cancel = None  # events do not pickle
            elif cancel is not None:
                shard_cancel = cancel  # caller-supplied (admin kill hook)
            elif ctx is not None and ctx.governed:
                shard_cancel = CancelToken()
            else:
                shard_cancel = None
            tasks = [
                _BatchShardTask(
                    shard_index=index,
                    log=shard_log,
                    patterns=tuple(
                        resolved[pending[p]] for p in scan_positions
                    ),
                    max_incidents=max_incidents,
                    cache=task_cache,
                    ctx=ctx,
                    cancel=shard_cancel,
                    journal=recorder is not None,
                )
                for index, shard_log in enumerate(shard_logs)
            ]
            if recorder is not None:
                recorder.shard(
                    shards=len(tasks),
                    backend=backend_name,
                    jobs=jobs,
                    strategy=strategy,
                )
            with make_backend(backend_name, jobs) as runner:
                try:
                    outcomes = runner.run(evaluate_batch_shard, tasks)
                except QueryGovernorError as exc:
                    # set the token before the pool joins, so running
                    # siblings bail at their next cooperative checkpoint
                    if shard_cancel is not None:
                        shard_cancel.set()
                    if recorder is not None:
                        recorder.killed(exc, queries=len(resolved))
                    raise

            per_query: list[list[Incident]] = [[] for _ in scan_positions]
            for outcome in outcomes:
                merged_stats.merge(outcome.stats)
                shared_hits += outcome.shared_hits
                if recorder is not None:
                    recorder.adopt(outcome.events)
                for slot, incidents in enumerate(outcome.per_query):
                    per_query[slot].extend(incidents)
            incident_lists: dict[int, list[Incident]] = {
                position: per_query[slot]
                for slot, position in enumerate(scan_positions)
            }
            position_sets: dict[int, IncidentSet] = {
                position: IncidentSet(incidents)
                for position, incidents in incident_lists.items()
            }
            if plan is not None:
                # resolve aliases/derivations in dependency order; strict
                # containment is a partial order, so every pass makes
                # progress (a derive chain bottoms out at a scanned leader)
                remaining = [
                    p for p, action in enumerate(plan.actions)
                    if action.kind != "scan"
                ]
                while remaining:
                    deferred = []
                    for position in remaining:
                        action = plan.actions[position]
                        if action.source not in position_sets:
                            deferred.append(position)
                            continue
                        if action.kind == "alias":
                            incident_lists[position] = incident_lists[action.source]
                            position_sets[position] = position_sets[action.source]
                        else:
                            derived = plan.filter_incidents(
                                position, incident_lists[action.source], log
                            )
                            incident_lists[position] = derived
                            position_sets[position] = IncidentSet(derived)
                    assert len(deferred) < len(remaining)
                    remaining = deferred
            for position, index in enumerate(pending):
                incident_set = position_sets[position]
                final[index] = incident_set
                if keys[index] is not None:
                    live_cache.put_result(keys[index], incident_set)
        merged_stats.publish()
        if metrics is not None:
            metrics.counter("exec.batch_shared_hits").inc(shared_hits)
            metrics.counter("analysis.subsumed").inc(subsumed)
            metrics.counter("analysis.proofs").inc(proofs)
        span.add(
            queries=len(resolved),
            shards=len(tasks) if pending else 0,
            shared_hits=shared_hits,
            cache_hits=cache_hits,
            subsumed=subsumed,
            proofs=proofs,
            pairs=merged_stats.pairs_examined,
        )

    results = tuple(final)
    assert all(r is not None for r in results)
    if recorder is not None:
        recorder.finish(
            stats=merged_stats,
            incidents=sum(len(r) for r in results if r is not None),
            queries=len(resolved),
            shared_hits=shared_hits,
            cache_hits=cache_hits,
            subsumed=subsumed,
        )
    return BatchResult(
        patterns=tuple(resolved),
        results=results,  # type: ignore[arg-type]
        stats=merged_stats,
        shared_hits=shared_hits,
        backend=backend_name,
        jobs=jobs,
        cache_hits=cache_hits,
        subsumed=subsumed,
        proofs=proofs,
    )
