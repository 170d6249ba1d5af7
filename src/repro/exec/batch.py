"""Evaluation of multiple queries in one pass over the log.

Workloads that monitor a log usually run *families* of related queries —
the same clinical pathway with different suffixes, the same prefix with
different windows.  Evaluating them independently recomputes every
shared subpattern once per query.  :func:`evaluate_batch` instead
canonicalises every pattern with the optimizer's rule-based
:func:`~repro.core.optimizer.rules.normalize` (associativity and
commutativity rewrites bring structurally equal subpatterns to one
canonical shape, maximising cross-query sharing) and runs them as one
run (:func:`~repro.core.query.execute`, as a :class:`~repro.core.query.Query` does):

1. the cache answers what it holds for this epoch;
2. of the rest, a query whose
   :func:`~repro.core.optimizer.rules.identity` (its normal form under
   Theorems 2-5) an earlier pending query has aliases that query's
   result set outright and is not scanned;
3. the scanned queries go to one
   :meth:`~repro.core.eval.vectorized.VectorizedEngine.evaluate_all`
   pass: the patterns compile into one forest in which a composite
   subpattern shared by several queries (or appearing twice in one) is a
   single node, and the windows are walked once — so that subpattern is
   joined once per instance, under one ``EvaluationStats`` and one
   governor account for the whole batch.  A query the cache holds at an
   earlier epoch of the same store is a delta root of that pass, joined
   only on the instances appended to since.

The observable guarantee, asserted in ``tests/exec/test_batch.py`` and
``tests/exec/test_batch_subsumption.py``: the per-query incident sets
equal independent evaluation byte for byte — an alias is exact, because
patterns with one identity are equivalent and have the same incidents on
every log (Definition 5) — while
``stats.pairs_examined`` shrinks whenever any subpattern is shared or
any query is aliased.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.algebra import canonicalize
from repro.core.errors import ReproError
from repro.core.eval.base import EvaluationStats
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.incident import IncidentSet
from repro.core.model import Log
from repro.core.optimizer.rules import normalize
from repro.core.options import EngineOptions
from repro.core.parser import parse
from repro.core.pattern import Pattern
from repro.core.query import delta_base, execute, probe
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
    #: queries that skipped their own log scan because an earlier query
    #: of the batch has their identity
    subsumed: int = 0

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
        (``cache_hits`` on the returned batch counts them); one cached at
        an earlier epoch of the same store is joined only on the
        instances appended to since; the others are evaluated whole.
        Every result is stored (without stats), so hits survive across
        ``evaluate_batch`` calls.  ``deadline_ms`` / ``max_pairs`` are
        per-*batch* budgets, enforced cooperatively inside the shared
        scan (the pairs budget spans all queries in the batch): tripping
        one raises the typed :class:`~repro.core.errors.QueryTimeout` /
        :class:`~repro.core.errors.QueryBudgetExceeded` and, with a
        ``journal``, records a terminal ``killed`` event (one
        ``query_id`` for the whole batch).  Setting the ``cancel`` token
        stops the scan at its next checkpoint with
        :class:`~repro.core.errors.QueryCancelled` (the admin-kill hook).

    A query that misses the cache and has the identity of an earlier one
    that missed skips its own scan and shares that query's incident set;
    the returned batch reports it in ``subsumed``.  ``lint_batch``'s QW501
    names exactly these positions.
    """
    from repro.cache.manager import resolve_cache

    opts = options if options is not None else EngineOptions()
    if opts.engine not in (None, VectorizedEngine.name):
        raise ReproError(
            f"a batch is one shared scan on the {VectorizedEngine.name!r} "
            f"engine; got engine {opts.engine!r}"
        )
    resolved: list[Pattern] = []
    identities: list[Pattern] = []
    for pattern in patterns:
        if isinstance(pattern, str):
            pattern = parse(pattern)
        normal, _ = normalize(pattern)  # once, for its identity and its plan
        identities.append(canonicalize(normal))
        resolved.append(normal if opts.optimize else pattern)
    if not resolved:
        raise ValueError("evaluate_batch needs at least one pattern")
    n = len(resolved)
    cache = resolve_cache(opts.cache)
    metrics = opts.metrics
    trc = opts.tracer if opts.tracer is not None else NULL_TRACER

    def body(engine: VectorizedEngine) -> tuple[BatchResult, dict[str, Any]]:
        with trc.span("batch", key=()) as span:
            keys, hits = probe(log, resolved, cache, opts)
            results: list[Any] = [None if hit is None else hit.incidents for hit in hits]
            pending = [i for i, hit in enumerate(hits) if hit is None]
            # an aliased query never reaches the scan: it takes the set of
            # the first pending position with its identity
            first: dict[Pattern, int] = {}
            sources = [first.setdefault(identities[i], i) for i in pending]
            scanned = list(first.values())
            if scanned:
                bases = [] if cache is None else [delta_base(log, cache, keys[i]) for i in scanned]
                sets, shared_hits = engine.evaluate_all(log, [resolved[i] for i in scanned], bases)
                stats = engine.last_stats
                found = dict(zip(scanned, sets))
                for i, source in zip(pending, sources):
                    results[i] = found[source]
                    if keys[i] is not None:
                        cache.put_result(keys[i], results[i])
            else:  # the cache answered every position
                stats, shared_hits = EvaluationStats(registry=metrics), 0
                stats.publish()
            outcome = BatchResult(
                patterns=tuple(resolved),
                results=tuple(results),
                stats=stats,
                shared_hits=shared_hits,
                cache_hits=n - len(pending),
                subsumed=len(pending) - len(scanned),
            )
            if metrics is not None:
                metrics.counter("exec.batch_shared_hits").inc(shared_hits)
                metrics.counter("analysis.subsumed").inc(outcome.subsumed)
            span.add(
                queries=n,
                shared_hits=shared_hits,
                cache_hits=outcome.cache_hits,
                subsumed=outcome.subsumed,
                pairs=stats.pairs_examined,
            )
        incidents = sum(map(len, results))
        return outcome, dict(stats=stats, incidents=incidents, queries=n, shared_hits=shared_hits,
                             cache_hits=outcome.cache_hits, subsumed=outcome.subsumed)

    return execute(opts, resolved, "batch", body, queries=n)
