"""Picklable per-shard evaluation entry points.

The process backend ships work to pool workers by pickling; everything
here is therefore module-level and built from picklable pieces only
(frozen dataclasses, :class:`~repro.core.model.Log`, patterns).  Workers
run without a metrics registry — counters cross back inside the returned
:class:`~repro.core.eval.base.EvaluationStats` and are published once by
the caller — and with a private :class:`~repro.obs.tracer.Tracer` when
tracing is requested, whose root span rides home in the outcome for
:func:`~repro.obs.tracer.merge_span_trees`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import ReproError
from repro.core.eval.base import Engine, EvaluationStats
from repro.core.governor import CancelToken, QueryContext, ResourceGovernor
from repro.core.incident import Incident
from repro.core.model import Log
from repro.core.pattern import Pattern
from repro.obs.tracer import Span, Tracer

__all__ = ["EngineConfig", "ShardTask", "ShardOutcome", "evaluate_shard"]

#: Engine names accepted by :class:`EngineConfig`, beyond the ``ENGINES``
#: registry: the incremental evaluator is not a batch ``Engine`` subclass
#: but replays a shard through its streaming path.
INCREMENTAL = "incremental"


@dataclass(frozen=True)
class EngineConfig:
    """A picklable recipe for one evaluation engine.

    Engine *instances* hold tracers and metrics registries that must not
    cross process boundaries, so workers receive this recipe and build a
    fresh engine locally.
    """

    #: an ``ENGINES`` name, ``"incremental"``, or None for the default engine
    name: str | None = None
    max_incidents: int | None = None

    def build(
        self,
        *,
        tracer: Tracer | None = None,
        governor: ResourceGovernor | None = None,
    ) -> Engine:
        from repro.core.query import engine_class

        return engine_class(self.name)(
            max_incidents=self.max_incidents, tracer=tracer, governor=governor
        )


@dataclass(frozen=True)
class ShardTask:
    """One unit of work: evaluate ``pattern`` over one shard's log.

    ``mode`` selects what the worker computes:

    * ``"evaluate"`` — the full incident list (canonically sorted);
    * ``"count"`` — only the incident count (engines use the counting DP
      where it applies, so no incident crosses back).

    ``ctx`` carries the query's identity and budgets
    (:class:`~repro.core.governor.QueryContext` — frozen and picklable,
    with an *absolute* deadline so process workers observe the same
    cutoff as the parent).  ``cancel`` is the in-process sibling
    cancellation token; it is never set on tasks bound for a process
    pool (events do not pickle — process shards self-enforce via the
    absolute deadline and ``cancel_futures``).  With ``journal`` true
    the worker records an ``evaluate`` journal event and ships it home
    in the outcome as a plain dict.
    """

    shard_index: int
    log: Log
    pattern: Pattern
    engine: EngineConfig = field(default_factory=EngineConfig)
    mode: str = "evaluate"
    trace: bool = False
    ctx: QueryContext | None = None
    cancel: CancelToken | None = field(default=None, compare=False)
    journal: bool = False


@dataclass(frozen=True)
class ShardOutcome:
    """What one worker sends back for one shard.

    ``events`` holds the worker's journal events as plain picklable
    dicts (built with :func:`repro.obs.journal.make_event`); the parent
    executor re-sequences them into the live journal so a parallel run
    stitches into one query record.
    """

    shard_index: int
    incidents: tuple[Incident, ...]
    count: int
    stats: EvaluationStats
    span: Span | None = None
    events: tuple[dict, ...] = ()


def _shard_governor(task: ShardTask) -> ResourceGovernor | None:
    """The worker-local governor for this shard, or None ungoverned."""
    if task.ctx is None:
        return None
    return ResourceGovernor.from_context(task.ctx, cancel=task.cancel)


def _shard_event(
    task: ShardTask,
    engine: str,
    stats: EvaluationStats,
    count: int,
    wall_ms: float,
    cpu_ms: float,
) -> tuple[dict, ...]:
    """The worker's ``evaluate`` journal event (empty when not journaling)."""
    if not task.journal or task.ctx is None:
        return ()
    from repro.obs.journal import make_event

    event: dict[str, Any] = make_event(
        "evaluate",
        query_id=task.ctx.query_id,
        trace_id=task.ctx.trace_id,
        shard=task.shard_index,
        engine=engine,
        mode=task.mode,
        records=len(task.log),
        pairs=stats.pairs_examined,
        incidents=count,
        wall_ms=wall_ms,
        cpu_ms=cpu_ms,
    )
    return (event,)


def evaluate_shard(task: ShardTask) -> ShardOutcome:
    """Evaluate one shard; the module-level function handed to backends.

    Runs in the worker process (or inline, for the serial and thread
    backends).  The shard log has original ``lsn`` values, so the
    returned incidents are identical — same identity keys, same canonical
    sort position — to the ones a whole-log evaluation produces for the
    shard's wids.

    When the task carries a governed :class:`QueryContext`, the worker
    builds a local :class:`~repro.core.governor.ResourceGovernor` — the
    typed budget error it raises propagates to the caller (picklable by
    construction), and the remaining shards are cancelled there.
    """
    tracer = Tracer() if task.trace else None
    governor = _shard_governor(task)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if task.engine.name == INCREMENTAL:
        return _evaluate_incremental(task, tracer, governor, wall0, cpu0)
    engine = task.engine.build(tracer=tracer, governor=governor)
    if task.mode == "count":
        count = engine.count(task.log, task.pattern)
        incidents: tuple[Incident, ...] = ()
    elif task.mode == "evaluate":
        incidents = tuple(engine.evaluate(task.log, task.pattern))
        count = len(incidents)
    else:
        raise ReproError(f"unknown shard mode {task.mode!r}")
    stats = engine.last_stats or EvaluationStats()
    wall_ms = (time.perf_counter() - wall0) * 1000.0
    cpu_ms = (time.process_time() - cpu0) * 1000.0
    return ShardOutcome(
        shard_index=task.shard_index,
        incidents=incidents,
        count=count,
        stats=stats,
        span=tracer.last_root if tracer is not None else None,
        events=_shard_event(task, engine.name, stats, count, wall_ms, cpu_ms),
    )


def _evaluate_incremental(
    task: ShardTask,
    tracer: Tracer | None,
    governor: ResourceGovernor | None = None,
    wall0: float = 0.0,
    cpu0: float = 0.0,
) -> ShardOutcome:
    """Replay the shard through the streaming evaluator.

    Shard logs keep whole instances in original order, so the stream
    invariants (ascending ``lsn``, per-instance consecutive ``is_lsn``)
    hold and the accumulated state equals the batch ``incL``.
    """
    from repro.core.eval.incremental import IncrementalEvaluator

    evaluator = IncrementalEvaluator(
        task.pattern,
        task.log,
        max_incidents=task.engine.max_incidents,
        tracer=tracer,
        governor=governor,
    )
    incidents = tuple(evaluator.incidents())
    wall_ms = (time.perf_counter() - wall0) * 1000.0
    cpu_ms = (time.process_time() - cpu0) * 1000.0
    return ShardOutcome(
        shard_index=task.shard_index,
        incidents=() if task.mode == "count" else incidents,
        count=len(incidents),
        stats=evaluator.stats,
        span=tracer.last_root if tracer is not None else None,
        events=_shard_event(
            task, INCREMENTAL, evaluator.stats, len(incidents), wall_ms, cpu_ms
        ),
    )
