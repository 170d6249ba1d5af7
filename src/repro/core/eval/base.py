"""Engine interface shared by all pattern-evaluation strategies."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.errors import BudgetExceededError
from repro.core.incident import IncidentSet
from repro.core.model import Log
from repro.core.pattern import Atomic, Pattern
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.governor import ResourceGovernor

__all__ = ["Engine", "EvaluationStats", "node_label"]

logger = get_logger("core.eval")


def node_label(pattern: Pattern) -> str:
    """Display label of one incident-tree node: the query text for leaves,
    the operator glyph (with window bound, if any) for internal nodes.

    All engines label their trace spans through this function, which is
    what makes trace trees comparable across engines.
    """
    if isinstance(pattern, Atomic):
        return pattern.to_query_text()
    bound = getattr(pattern, "bound", None)
    if bound is not None:
        return f"⊳[{bound}]"
    return pattern.symbol


@dataclass
class EvaluationStats:
    """Counters collected during one evaluation, for `explain` output and
    for the benchmark harness.

    Attributes
    ----------
    operator_evals:
        Number of binary-operator node evaluations performed.
    pairs_examined:
        Number of (o1, o2) incident pairs inspected across all operator
        evaluations — the paper's ``n1*n2`` cost driver (Lemma 1).
    incidents_produced:
        Total incidents materialised, including intermediates.
    max_live_incidents:
        Peak size of any single materialised incident set (the quantity
        an ``max_incidents`` budget actually guards, per Theorem 1).
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` adapter: when
        set, :meth:`publish` adds the counts to the engine metrics, so
        existing ``EvaluationStats`` consumers keep working while metrics
        consumers see the same numbers.
    """

    operator_evals: int = 0
    pairs_examined: int = 0
    incidents_produced: int = 0
    max_live_incidents: int = 0
    per_operator: dict[str, int] = field(default_factory=dict)
    registry: MetricsRegistry | None = field(
        default=None, repr=False, compare=False
    )

    def note_operator(self, symbol: str) -> None:
        self.operator_evals += 1
        self.per_operator[symbol] = self.per_operator.get(symbol, 0) + 1

    def note_live(self, size: int) -> None:
        """Record one materialised incident-set size (tracks the peak)."""
        if size > self.max_live_incidents:
            self.max_live_incidents = size

    def publish(self) -> None:
        """Flush the whole-evaluation totals into the bound registry.

        Engines call this once per evaluation; per-pair and per-operator
        counts are accumulated locally (plain int adds on the hot path) and
        exported in one shot here.
        """
        if self.registry is None:
            return
        registry = self.registry
        registry.counter("engine.evaluations").inc()
        if self.operator_evals:
            registry.counter("engine.operator_evals").inc(self.operator_evals)
            for symbol, count in self.per_operator.items():
                registry.counter(f"engine.operator_evals.{symbol}").inc(count)
        registry.counter("engine.pairs_examined").inc(self.pairs_examined)
        registry.counter("engine.incidents_produced").inc(self.incidents_produced)
        registry.gauge("engine.max_live_incidents").set_max(self.max_live_incidents)


class Engine(ABC):
    """Evaluates incident patterns over logs.

    Parameters
    ----------
    max_incidents:
        Optional safety cap: if any intermediate or final incident set
        exceeds this size, :class:`~repro.core.errors.BudgetExceededError`
        is raised.  Incident sets can be exponential in pattern size
        (Theorem 1), so long-running services should always set a cap.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`.  When supplied, each
        evaluation records a span tree mirroring the incident tree, with
        per-node operand cardinalities, pairs examined, incidents
        produced and elapsed time.  Defaults to the no-op
        :data:`~repro.obs.tracer.NULL_TRACER`.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving the
        ``engine.*`` counter family.
    governor:
        Optional :class:`~repro.core.governor.ResourceGovernor` consulted
        at the engine's cooperative checkpoints: the join kernel checks
        inside its joins whenever its work count reaches the governor's
        :meth:`~repro.core.governor.ResourceGovernor.next_due` mark, and
        once more when the run completes; the reference engine checks per
        workflow instance and per operator node; the SQL baseline from
        SQLite's progress handler.  Unlike ``max_incidents`` — which
        guards materialised set sizes — the governor bounds *work* (pairs
        examined, wall clock) and cooperative cancellation.  Queries set
        it per run; it may also be passed at construction.
    """

    name = "abstract"

    def __init__(
        self,
        *,
        max_incidents: int | None = None,
        tracer: Tracer | NullTracer | None = None,
        metrics: MetricsRegistry | None = None,
        governor: "ResourceGovernor | None" = None,
    ):
        self.max_incidents = max_incidents
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.governor = governor
        self.last_stats: EvaluationStats | None = None

    def _new_stats(self) -> EvaluationStats:
        return EvaluationStats(registry=self.metrics)

    def _finish(self, stats: EvaluationStats) -> None:
        """Install ``stats`` as ``last_stats`` and flush it to metrics."""
        self.last_stats = stats
        stats.publish()
        if logger.isEnabledFor(10):  # logging.DEBUG
            logger.debug(
                "%s: %d operator eval(s), %d pairs, %d incidents, peak %d",
                self.name,
                stats.operator_evals,
                stats.pairs_examined,
                stats.incidents_produced,
                stats.max_live_incidents,
            )

    @abstractmethod
    def evaluate(self, log: Log, pattern: Pattern) -> IncidentSet:
        """Compute the full incident set ``incL(pattern)``."""

    def exists(self, log: Log, pattern: Pattern) -> bool:
        """Whether at least one incident of ``pattern`` occurs in ``log``.

        Subclasses may override with short-circuit strategies; the default
        materialises the full set.
        """
        return bool(self.evaluate(log, pattern))

    def _checkpoint(self, stats: EvaluationStats) -> None:
        """One cooperative governor checkpoint.

        Engines call this where their docs say (see ``governor`` in the
        class docs); when a governor is installed and a budget is blown,
        the typed
        :class:`~repro.core.errors.QueryGovernorError` propagates with a
        detached partial-stats snapshot.  ``stats`` is installed as
        ``last_stats`` first, so callers inspecting the engine after a
        kill still see what the evaluation had cost.
        """
        governor = self.governor
        if governor is not None:
            self.last_stats = stats
            governor.check(stats)

    def _check_budget(self, size: int) -> None:
        if self.max_incidents is not None and size > self.max_incidents:
            raise BudgetExceededError(
                f"incident set exceeded the cap of {self.max_incidents} "
                f"(reached {size}); raise max_incidents or refine the pattern",
                limit=self.max_incidents,
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_incidents={self.max_incidents})"
