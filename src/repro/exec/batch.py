"""Shared-scan evaluation of multiple queries in one pass.

Workloads that monitor a log usually run *families* of related queries —
the same clinical pathway with different suffixes, the same prefix with
different windows.  Evaluating them independently recomputes every
shared subpattern once per query.  :func:`evaluate_batch` instead:

1. canonicalises every pattern with the optimizer's rule-based
   :func:`~repro.core.optimizer.rules.normalize` (associativity and
   commutativity rewrites bring structurally equal subpatterns to one
   canonical shape, maximising cross-query sharing);
2. evaluates all patterns with one sharing join kernel — a
   :class:`~repro.core.eval.vectorized.VectorizedEngine` with
   ``share=True``, whose per-``(instance, subpattern)`` results are
   kept across the batch, so a composite subpattern shared by several
   queries (or appearing twice in one) is joined exactly once;
3. runs the :mod:`repro.analysis` subsumption planner over the still-
   pending queries (``analyze=True``): queries *proved* equivalent to a
   sibling alias its result set outright, and queries proved strictly
   contained in a sibling skip their scan — the subsuming query is
   evaluated once and the subsumed one derived by filtering its
   incidents through an exact membership matcher.

The observable guarantee, asserted in ``tests/exec/test_batch.py`` and
``tests/exec/test_batch_subsumption.py``: the per-query incident sets
equal independent evaluation byte for byte — subsumption derivation is
exact, because ``p ⊑ q`` makes filtering ``incL(q)`` through ``p``'s
matcher yield precisely ``incL(p)`` — while ``stats.pairs_examined``
shrinks whenever any subpattern is shared or any query is subsumed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.errors import QueryGovernorError
from repro.core.eval.base import EvaluationStats
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.governor import CancelToken, QueryContext, ResourceGovernor
from repro.core.incident import IncidentSet
from repro.core.model import Log
from repro.core.optimizer.rules import normalize
from repro.core.parser import parse
from repro.core.pattern import Pattern
from repro.obs.journal import QueryJournal, RunRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = ["BatchResult", "evaluate_batch"]


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one batch evaluation.

    ``results[i]`` is the incident set of ``patterns[i]`` (input order);
    ``stats`` aggregates the work over all queries; ``shared_hits``
    counts node evaluations elided by subpattern sharing.
    """

    patterns: tuple[Pattern, ...]
    results: tuple[IncidentSet, ...]
    stats: EvaluationStats
    shared_hits: int
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
            f"{self.subsumed} subsumed)"
        )


def evaluate_batch(
    log: Log,
    patterns,
    *,
    optimize: bool = True,
    analyze: bool = True,
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
    cache:
        Optional :class:`~repro.cache.manager.QueryCache` (or any value
        :func:`~repro.cache.manager.resolve_cache` accepts).  Queries
        whose result is already cached skip evaluation entirely
        (``cache_hits`` on the returned batch counts them); cold queries
        are evaluated and stored, so hits survive across
        ``evaluate_batch`` calls.
    deadline_ms / max_pairs:
        Per-*batch* resource budgets, enforced cooperatively inside the
        shared scan (the pairs budget spans all queries in the batch).
        Tripping one raises the typed
        :class:`~repro.core.errors.QueryTimeout` /
        :class:`~repro.core.errors.QueryBudgetExceeded` and — with a
        journal attached — records a terminal ``killed`` event.
    journal:
        Optional :class:`~repro.obs.journal.QueryJournal` receiving the
        batch's lifecycle events (one ``query_id`` for the whole batch).
    cancel:
        Optional :class:`~repro.core.governor.CancelToken`; setting it
        stops the scan at its next checkpoint with
        :class:`~repro.core.errors.QueryCancelled` (the admin-kill hook).
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
        ctx = QueryContext.new(deadline_ms=deadline_ms, max_pairs=max_pairs)
    if journal is not None and ctx is not None:
        label = (
            str(resolved[0])
            if len(resolved) == 1
            else f"{resolved[0]} (+{len(resolved) - 1} more)"
        )
        recorder = RunRecorder(journal, ctx, pattern=label, op="batch")
        recorder.submit(queries=len(resolved))

    # cache pre-pass: finished queries never reach the scan
    final: list[IncidentSet | None] = [None] * len(resolved)
    keys: list[object | None] = [None] * len(resolved)
    cache_hits = 0
    if live_cache is not None:
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
    # pending queries, so subsumed ones never reach the scan
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

    merged_stats = EvaluationStats(registry=metrics)
    shared_hits = 0
    trc = tracer if tracer is not None else NULL_TRACER
    with trc.span("batch", key=()) as span:
        if pending:
            governor = (
                ResourceGovernor.from_context(ctx, cancel=cancel)
                if ctx is not None
                else None
            )
            engine = VectorizedEngine(
                share=True,
                max_incidents=max_incidents,
                governor=governor,
            )
            wall0, cpu0 = time.perf_counter(), time.process_time()
            position_sets: dict[int, IncidentSet] = {}
            try:
                for position in scan_positions:
                    position_sets[position] = engine.evaluate(
                        log, resolved[pending[position]]
                    )
                    if engine.last_stats is not None:
                        merged_stats.merge(engine.last_stats)
                        if governor is not None:
                            # each evaluate() starts fresh stats; carry the
                            # finished pattern's pairs into the governor so
                            # max_pairs bounds the whole batch, not each
                            # query separately
                            governor.charge(engine.last_stats.pairs_examined)
            except QueryGovernorError as exc:
                if recorder is not None:
                    recorder.killed(exc, queries=len(resolved))
                raise
            shared_hits = engine.shared_hits
            if recorder is not None:
                recorder.evaluate(
                    pairs=merged_stats.pairs_examined,
                    incidents=sum(len(r) for r in position_sets.values()),
                    engine=engine.name,
                    mode="batch",
                    records=len(log),
                    wall_ms=(time.perf_counter() - wall0) * 1000.0,
                    cpu_ms=(time.process_time() - cpu0) * 1000.0,
                )
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
                            position_sets[position] = position_sets[action.source]
                        else:
                            position_sets[position] = IncidentSet(
                                plan.filter_incidents(
                                    position, position_sets[action.source], log
                                )
                            )
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
        cache_hits=cache_hits,
        subsumed=subsumed,
        proofs=proofs,
    )
