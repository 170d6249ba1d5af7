"""Evaluation of multiple queries in one pass over the log.

Workloads that monitor a log usually run *families* of related queries —
the same clinical pathway with different suffixes, the same prefix with
different windows.  Evaluating them independently recomputes every
shared subpattern once per query.  :func:`evaluate_batch` instead:

1. canonicalises every pattern with the optimizer's rule-based
   :func:`~repro.core.optimizer.rules.normalize` (associativity and
   commutativity rewrites bring structurally equal subpatterns to one
   canonical shape, maximising cross-query sharing);
2. runs the :mod:`repro.analysis` subsumption planner over the queries
   the cache did not answer (``analyze=True``): queries *proved*
   equivalent to a sibling alias its result set outright and are not
   scanned.  A query only proved strictly contained in a sibling is
   scanned like any other: one more root in the forest costs less than
   deriving its incidents from the sibling's one at a time;
3. hands the scanned queries to one
   :meth:`~repro.core.eval.vectorized.VectorizedEngine.evaluate_all`
   call: the patterns compile into one forest in which a composite
   subpattern shared by several queries (or appearing twice in one) is a
   single node, and the windows are walked once — so that subpattern is
   joined once per instance, under one ``EvaluationStats`` and one
   governor account for the whole batch.

The observable guarantee, asserted in ``tests/exec/test_batch.py`` and
``tests/exec/test_batch_subsumption.py``: the per-query incident sets
equal independent evaluation byte for byte — an alias is exact, because
equivalent patterns have the same incidents on every log — while
``stats.pairs_examined`` shrinks whenever any subpattern is shared or
any query is aliased.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import QueryGovernorError, ReproError
from repro.core.eval.base import EvaluationStats
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.governor import begin_run
from repro.core.incident import IncidentSet
from repro.core.model import Log
from repro.core.optimizer.rules import normalize
from repro.core.options import EngineOptions
from repro.core.parser import parse
from repro.core.pattern import Pattern
from repro.obs.tracer import NULL_TRACER

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
    #: planner proved them equivalent to a sibling
    subsumed: int = 0
    #: equivalence proofs the planner used, one per aliased query
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
    options: EngineOptions | None = None,
    *,
    analyze: bool = True,
) -> BatchResult:
    """Evaluate N queries over one log with shared subpattern scans.

    Parameters
    ----------
    patterns:
        Patterns or query-text strings (mixed freely).
    options:
        The :class:`~repro.core.options.EngineOptions` of the whole batch
        (None for the defaults).  A batch is one shared scan on the join
        kernel, so ``engine`` must be None or ``"vectorized"``; anything
        else raises :class:`~repro.core.errors.ReproError`.  ``optimize``
        applies rule-based canonicalisation before evaluation: unlike the
        per-query cost-based optimizer, normalisation never trades
        sharing away, equal subpatterns stay equal.  ``cache``: queries
        whose result is already cached skip evaluation entirely
        (``cache_hits`` on the returned batch counts them); cold queries
        are evaluated and stored, so hits survive across
        ``evaluate_batch`` calls.  ``deadline_ms`` / ``max_pairs`` are
        per-*batch* budgets, enforced cooperatively inside the shared
        scan (the pairs budget spans all queries in the batch): tripping
        one raises the typed :class:`~repro.core.errors.QueryTimeout` /
        :class:`~repro.core.errors.QueryBudgetExceeded` and, with a
        ``journal``, records a terminal ``killed`` event (one
        ``query_id`` for the whole batch).  Setting the ``cancel`` token
        stops the scan at its next checkpoint with
        :class:`~repro.core.errors.QueryCancelled` (the admin-kill hook).
    analyze:
        Run the :func:`repro.analysis.plan_subsumption` prover pass over
        the pending queries (default).  Queries proved equivalent to a
        sibling skip their own scan and share its incident set; the
        returned batch reports them in ``subsumed`` (``proofs`` counts
        the equivalence proofs used).  Queries the prover cannot handle
        fall back to a normal scan — analysis never fails a batch.
    """
    from repro.cache.manager import resolve_cache

    opts = options if options is not None else EngineOptions()
    if opts.engine not in (None, VectorizedEngine.name):
        raise ReproError(
            f"a batch is one shared scan on the {VectorizedEngine.name!r} "
            f"engine; got engine {opts.engine!r}"
        )
    live_cache = resolve_cache(opts.cache)
    resolved: list[Pattern] = []
    for pattern in patterns:
        if isinstance(pattern, str):
            pattern = parse(pattern)
        if opts.optimize:
            pattern, _ = normalize(pattern)
        resolved.append(pattern)
    if not resolved:
        raise ValueError("evaluate_batch needs at least one pattern")
    recorder, governor = begin_run(opts, resolved, "batch", queries=len(resolved))

    # cache pre-pass: finished queries never reach the scan
    final: list[IncidentSet | None] = [None] * len(resolved)
    keys: list[object | None] = [None] * len(resolved)
    cache_hits = 0
    if live_cache is not None:
        for index, pattern in enumerate(resolved):
            key = live_cache.result_key(
                log, pattern, max_incidents=opts.max_incidents
            )
            keys[index] = key
            hit = live_cache.get_result(key)
            if hit is not None:
                final[index] = hit.incidents
                cache_hits += 1
    pending = [i for i in range(len(resolved)) if final[i] is None]

    # subsumption pre-pass: prove equivalences across the pending
    # queries; an aliased one never reaches the scan, it takes the set of
    # its class leader (an earlier position)
    sources: list[int | None] = [None] * len(pending)
    if analyze and len(pending) > 1:
        from repro.analysis import AnalysisError, plan_subsumption

        try:
            plan = plan_subsumption([resolved[i] for i in pending])
        except AnalysisError:
            pass
        else:
            sources = [action.source for action in plan.actions]
    subsumed = sum(source is not None for source in sources)
    proofs = subsumed  # each alias rests on one equivalence proof

    metrics = opts.metrics
    stats = EvaluationStats(registry=metrics)
    shared_hits = 0
    trc = opts.tracer if opts.tracer is not None else NULL_TRACER
    with trc.span("batch", key=()) as span:
        if pending:
            engine = VectorizedEngine(
                max_incidents=opts.max_incidents, metrics=metrics, governor=governor
            )
            scanned = [resolved[pending[p]] for p, source in enumerate(sources) if source is None]
            try:
                scanned_sets, shared_hits = engine.evaluate_all(log, scanned)
            except QueryGovernorError as exc:
                if recorder is not None:
                    recorder.killed(exc, queries=len(resolved))
                raise
            stats = engine.last_stats
            next_scanned = iter(scanned_sets)
            position_sets: list[IncidentSet] = []
            for source in sources:
                position_sets.append(
                    next(next_scanned) if source is None else position_sets[source]
                )
            for index, incident_set in zip(pending, position_sets):
                final[index] = incident_set
                if keys[index] is not None:
                    live_cache.put_result(keys[index], incident_set)
        else:
            stats.publish()
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
            pairs=stats.pairs_examined,
        )

    results = tuple(final)
    assert all(r is not None for r in results)
    if recorder is not None:
        recorder.finish(
            stats=stats,
            incidents=sum(len(r) for r in results if r is not None),
            queries=len(resolved),
            shared_hits=shared_hits,
            cache_hits=cache_hits,
            subsumed=subsumed,
        )
    return BatchResult(
        patterns=tuple(resolved),
        results=results,  # type: ignore[arg-type]
        stats=stats,
        shared_hits=shared_hits,
        cache_hits=cache_hits,
        subsumed=subsumed,
        proofs=proofs,
    )
