"""Incremental (streaming) pattern evaluation.

The paper's framework (Figure 2) has the workflow engine *continuously*
appending to the log while analysts query it, and its related-work section
criticises warehousing precisely because it cannot support "runtime
execution monitoring".  This module supplies that capability: an
:class:`IncrementalEvaluator` maintains the incident sets of a pattern's
whole incident tree while records arrive one at a time, reporting exactly
the *new* incidents each append creates.

Delta propagation follows the classic incremental-join identity.  For a
binary node ``p = p1 θ p2`` with current child incident sets ``I1, I2``
and per-append child deltas ``Δ1, Δ2``::

    Δ(p) = (Δ1 ⋈θ I2) ∪ (I1 ⋈θ Δ2) ∪ (Δ1 ⋈θ Δ2)

with the θ-specific join predicate of Definition 4 (gap constraint for
⊙/⊳, record-disjointness for ⊕; ⊗ is a deduplicated union of deltas).
A per-node seen-set keeps ``incL`` set-semantics exact.

Guarantees (differential-tested against batch evaluation):

* after appending records ``r1..rn`` the evaluator's accumulated state
  equals ``incL(p)`` of the batch log over those records;
* each append returns exactly the incidents added by that record, so a
  monitor can alert without re-scanning.

Example
-------
>>> from repro.core.parser import parse
>>> from repro.core.model import LogRecord
>>> ev = IncrementalEvaluator(parse("A -> B"))
>>> ev.append(LogRecord(lsn=1, wid=1, is_lsn=1, activity="START"))
[]
>>> ev.append(LogRecord(lsn=2, wid=1, is_lsn=2, activity="A"))
[]
>>> new = ev.append(LogRecord(lsn=3, wid=1, is_lsn=3, activity="B"))
>>> [sorted(o.lsns) for o in new]
[[2, 3]]
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.core.errors import BudgetExceededError, EvaluationError
from repro.core.eval.base import EvaluationStats, node_label
from repro.core.incident import Incident, IncidentSet
from repro.core.model import Log, LogRecord
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.core.pattern import (
    Atomic,
    BinaryPattern,
    Choice,
    Consecutive,
    Parallel,
    Pattern,
    Sequential,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.governor import ResourceGovernor

__all__ = ["IncrementalEvaluator"]


class _NodeState:
    """Per-(node, wid) incident store with set-semantics dedup."""

    __slots__ = ("incidents", "seen")

    def __init__(self) -> None:
        self.incidents: list[Incident] = []
        self.seen: set[Incident] = set()

    def add_new(self, candidates: Iterable[Incident]) -> list[Incident]:
        """Insert candidates not seen before; returns the true delta."""
        fresh: list[Incident] = []
        for incident in candidates:
            if incident not in self.seen:
                self.seen.add(incident)
                self.incidents.append(incident)
                fresh.append(incident)
        return fresh


class _Node:
    """One incident-tree node with its per-instance state."""

    __slots__ = ("pattern", "left", "right", "state")

    def __init__(self, pattern: Pattern):
        self.pattern = pattern
        self.left: _Node | None = None
        self.right: _Node | None = None
        if isinstance(pattern, BinaryPattern):
            self.left = _Node(pattern.left)
            self.right = _Node(pattern.right)
        self.state: dict[int, _NodeState] = {}

    def state_for(self, wid: int) -> _NodeState:
        node_state = self.state.get(wid)
        if node_state is None:
            node_state = self.state[wid] = _NodeState()
        return node_state


class IncrementalEvaluator:
    """Maintains ``incL(pattern)`` over an append-only record stream.

    Parameters
    ----------
    pattern:
        The incident pattern to monitor.
    log:
        Optional existing log to replay into the evaluator at construction.
    max_incidents:
        Optional cap on the total incidents held at the root (monitors of
        explosive patterns should always set one); exceeding it raises
        :class:`~repro.core.errors.BudgetExceededError`.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; appends accumulate
        into one span tree mirroring the incident tree, the same shape
        the batch engines trace.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` fed through
        the evaluator's :class:`EvaluationStats` adapter (``stats``).
    governor:
        Optional :class:`~repro.core.governor.ResourceGovernor` checked
        once per appended record — the stream's natural cooperative
        checkpoint.
    """

    def __init__(
        self,
        pattern: Pattern,
        log: Log | None = None,
        *,
        max_incidents: int | None = None,
        tracer: Tracer | NullTracer | None = None,
        metrics: MetricsRegistry | None = None,
        governor: "ResourceGovernor | None" = None,
    ):
        self.pattern = pattern
        self.max_incidents = max_incidents
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.governor = governor
        self.stats = EvaluationStats(registry=metrics)
        self._root = _Node(pattern)
        self._last_lsn = 0
        self._next_is_lsn: dict[int, int] = {}
        self._records_seen = 0
        if log is not None:
            self.extend(log)

    # -- feeding -------------------------------------------------------

    def append(self, record: LogRecord) -> list[Incident]:
        """Process one record; returns the incidents it completes.

        Records must arrive in ascending ``lsn`` order with per-instance
        consecutive ``is_lsn`` values (Definition 2's conditions 1 and 3,
        enforced online).
        """
        if record.lsn <= self._last_lsn:
            raise EvaluationError(
                f"records must arrive in ascending lsn order "
                f"(got {record.lsn} after {self._last_lsn})"
            )
        expected = self._next_is_lsn.get(record.wid, 1)
        if record.is_lsn != expected:
            raise EvaluationError(
                f"instance {record.wid}: expected is-lsn {expected}, "
                f"got {record.is_lsn}"
            )
        self._last_lsn = record.lsn
        self._next_is_lsn[record.wid] = expected + 1
        self._records_seen += 1

        if self.governor is not None:
            self.governor.check(self.stats)
        with self.tracer.span("evaluate", key=(), pattern=str(self.pattern)):
            delta = self._propagate(self._root, record, "root")
        if self.governor is not None:
            # re-check after propagation so one explosive append (a large
            # delta join) cannot outrun the budget until the next record
            self.governor.check(self.stats)
        if self.max_incidents is not None:
            total = sum(
                len(s.incidents) for s in self._root.state.values()
            )
            if total > self.max_incidents:
                raise BudgetExceededError(
                    f"incremental incident store exceeded "
                    f"{self.max_incidents}",
                    limit=self.max_incidents,
                )
        return delta

    def extend(self, records: Iterable[LogRecord]) -> list[Incident]:
        """Append many records; returns the concatenated deltas."""
        new: list[Incident] = []
        for record in records:
            new.extend(self.append(record))
        return new

    # -- reading ---------------------------------------------------------

    def incidents(self) -> IncidentSet:
        """The full incident set accumulated so far (= batch ``incL``)."""
        out: list[Incident] = []
        for node_state in self._root.state.values():
            out.extend(node_state.incidents)
        return IncidentSet(out)

    def __repr__(self) -> str:
        return (
            f"IncrementalEvaluator({str(self.pattern)!r}, "
            f"{self._records_seen} records seen)"
        )

    # -- delta propagation -------------------------------------------------

    def _propagate(
        self, node: _Node, record: LogRecord, key: int | str
    ) -> list[Incident]:
        """Push one record through the subtree; returns the node's delta."""
        with self.tracer.span(node_label(node.pattern), key=key) as span:
            fresh = self._propagate_inner(node, record, span)
            span.add(incidents=len(fresh))
            self.stats.incidents_produced += len(fresh)
        return fresh

    def _propagate_inner(self, node: _Node, record: LogRecord, span) -> list[Incident]:
        wid = record.wid
        if isinstance(node.pattern, Atomic):
            if node.pattern.matches(record):
                return node.state_for(wid).add_new([Incident([record])])
            return []

        assert node.left is not None and node.right is not None
        # snapshot sizes BEFORE recursing so old1/old2 exclude the deltas
        left_state = node.left.state_for(wid)
        right_state = node.right.state_for(wid)
        n_left_before = len(left_state.incidents)
        n_right_before = len(right_state.incidents)

        delta_left = self._propagate(node.left, record, 0)
        delta_right = self._propagate(node.right, record, 1)
        if not delta_left and not delta_right:
            return []

        old_left = left_state.incidents[:n_left_before]
        old_right = right_state.incidents[:n_right_before]
        pattern = node.pattern
        stats = self.stats
        stats.note_operator(pattern.symbol)
        if stats.registry is not None:
            # a stream has no end of evaluation to publish at, so its
            # operator counts reach the registry as they happen
            stats.registry.counter("engine.operator_evals").inc()
            stats.registry.counter(f"engine.operator_evals.{pattern.symbol}").inc()

        if isinstance(pattern, Choice):
            return node.state_for(wid).add_new(delta_left + delta_right)

        candidates: list[Incident] = []
        joins: Sequence[tuple[list[Incident], list[Incident]]] = (
            (delta_left, old_right),
            (old_left, delta_right),
            (delta_left, delta_right),
        )
        pairs = 0
        for side1, side2 in joins:
            for o1 in side1:
                for o2 in side2:
                    pairs += 1
                    if isinstance(pattern, (Consecutive, Sequential)):
                        if pattern.gap_ok(o1.last, o2.first):
                            candidates.append(o1.union(o2))
                    else:
                        assert isinstance(pattern, Parallel)
                        if o1.disjoint(o2):
                            candidates.append(o1.union(o2))
        stats.pairs_examined += pairs
        span.add(pairs=pairs)
        state = node.state_for(wid)
        added = state.add_new(candidates)
        stats.note_live(len(state.incidents))
        return added
