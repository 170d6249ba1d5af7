"""Per-query resource governor: budgets, deadlines, cancellation.

The paper's evaluation model runs every query to completion, but the
ROADMAP's long-running service cannot: incident sets are worst-case
exponential (Theorem 1) and pairwise operators quadratic (Lemma 1), so
one pathological pattern can starve a whole worker.  This module is the
admission-control half of the observability journal (PR 7):

* :class:`QueryContext` — the frozen, picklable identity + budget record
  a journaled run stamps on its events.
* :class:`ResourceGovernor` — the enforcement object.  The deadline is
  held as an **absolute** wall-clock instant (``deadline_unix``),
  measured from submission.
  Engines call :meth:`ResourceGovernor.check` at cooperative checkpoints;
  the join kernel checks when its work count reaches
  :meth:`ResourceGovernor.next_due` (every :data:`CHECK_STRIDE` units, or
  sooner where ``max_pairs`` could be crossed).  The governor raises the
  typed :class:`~repro.core.errors.QueryTimeout` /
  :class:`~repro.core.errors.QueryBudgetExceeded` /
  :class:`~repro.core.errors.QueryCancelled` carrying a detached partial
  :class:`~repro.core.eval.base.EvaluationStats` snapshot.
* :class:`CancelToken` — a flag another thread sets to stop a running
  query: the admin kill behind ``DELETE /v1/admin/inflight/{query_id}``.
  It wraps :class:`threading.Event`.
* :func:`begin_run` — the one place a run begins (through
  :func:`~repro.core.query.execute`): it builds the journal recorder
  and the governor that one :class:`~repro.core.options.EngineOptions`
  value asks for.

Checkpoints are cooperative by design: no signals, no threads killed
mid-operation, so partially built incident sets are simply dropped and
every engine invariant holds on the unwind path.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.errors import QueryBudgetExceeded, QueryCancelled, QueryTimeout, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.eval.base import EvaluationStats
    from repro.core.options import EngineOptions
    from repro.core.pattern import Pattern
    from repro.obs.journal import RunRecorder

__all__ = [
    "CHECK_STRIDE",
    "QueryContext",
    "ResourceGovernor",
    "CancelToken",
    "begin_run",
    "new_query_id",
    "new_trace_id",
]


#: Work units between two checkpoints of a strided engine: the join
#: kernel counts ``pairs_examined + operator_evals``, the SQL baseline
#: fetches rows in chunks of this many.  A kernel pair costs ≈ 0.5–1 µs and
#: a checkpoint (a clock read and an event poll) ≈ 0.3 µs, so 1 024 units
#: put a deadline check about every millisecond of join work at well under
#: 0.1 % overhead.
CHECK_STRIDE = 1024


def new_query_id() -> str:
    """A fresh query identifier (``q-`` + 16 hex chars)."""
    return "q-" + uuid.uuid4().hex[:16]


def new_trace_id() -> str:
    """A fresh trace identifier (``t-`` + 16 hex chars)."""
    return "t-" + uuid.uuid4().hex[:16]


class CancelToken:
    """A cooperative cancellation flag: the evaluating thread polls it
    at every governor checkpoint, any other thread may set it.

    ``reason`` (optional, recorded by the first :meth:`set`) travels
    into the :class:`~repro.core.errors.QueryCancelled` message, so an
    admin kill names who asked for it.  ``governor`` is the governor of
    the run that polls the token (set by :func:`begin_run`): whoever
    holds the token reads that run's live progress off it.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason: str | None = None
        self.governor: ResourceGovernor | None = None

    def set(self, reason: str | None = None) -> None:
        if reason is not None and self.reason is None:
            self.reason = reason
        self._event.set()

    def is_set(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CancelToken(set={self.is_set()})"


@dataclass(frozen=True)
class QueryContext:
    """Identity and budgets of one query.

    ``query_id`` names the query submission; ``trace_id`` names the
    execution attempt.  Both are stamped on every journal event emitted
    for this query, which is what makes the events of one run one
    lifecycle record in :mod:`repro.obs.journal`; the budgets are
    recorded on its ``submit`` event.
    """

    query_id: str
    trace_id: str
    deadline_ms: float | None = None
    max_pairs: int | None = None

    @classmethod
    def new(
        cls, *, deadline_ms: float | None = None, max_pairs: int | None = None
    ) -> "QueryContext":
        """Mint a context, with fresh ids, at submission time."""
        if deadline_ms is not None and deadline_ms <= 0:
            raise ReproError(f"deadline_ms must be > 0, got {deadline_ms}")
        if max_pairs is not None and max_pairs < 1:
            raise ReproError(f"max_pairs must be >= 1, got {max_pairs}")
        return cls(
            query_id=new_query_id(),
            trace_id=new_trace_id(),
            deadline_ms=deadline_ms,
            max_pairs=max_pairs,
        )


class ResourceGovernor:
    """Enforces one query's budgets at cooperative checkpoints.

    Parameters
    ----------
    deadline_unix:
        Absolute wall-clock cutoff (``time.time()`` scale), or None.
    deadline_ms:
        The original relative budget, kept for error messages only.
    max_pairs:
        Cap on ``EvaluationStats.pairs_examined``, or None.
    cancel:
        Optional shared :class:`CancelToken`; when set, the next
        checkpoint raises :class:`~repro.core.errors.QueryCancelled`.
    clock:
        Injectable time source for tests.
    """

    def __init__(
        self,
        *,
        deadline_unix: float | None = None,
        deadline_ms: float | None = None,
        max_pairs: int | None = None,
        cancel: CancelToken | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.deadline_unix = deadline_unix
        self.deadline_ms = deadline_ms
        self.max_pairs = max_pairs
        self.cancel = cancel
        self._clock = clock
        self._started = clock()
        #: live progress, refreshed at every checkpoint — the inflight
        #: introspection surface (``/v1/admin/inflight``) reads these
        #: without any locking (single int/float writes are atomic).
        self.checkpoints = 0
        self.pairs_seen = 0

    def check(self, stats: "EvaluationStats | None" = None) -> None:
        """One cooperative checkpoint; raises a typed governor error.

        Order matters: cancellation first (an operator asked, so report
        the kill, not a coincidental budget trip), then the pairs
        budget, then the deadline.
        """
        self.checkpoints += 1
        if stats is not None:
            self.pairs_seen = stats.pairs_examined
        if self.cancel is not None and self.cancel.is_set():
            reason = self.cancel.reason or "the cancel token was set"
            raise QueryCancelled(
                f"query cancelled: {reason}",
                partial_stats=_detach(stats),
            )
        if self.max_pairs is not None:
            examined = 0 if stats is None else stats.pairs_examined
            if examined > self.max_pairs:
                raise QueryBudgetExceeded(
                    f"query exceeded max_pairs={self.max_pairs} "
                    f"(examined {examined}); raise the budget or refine "
                    f"the pattern",
                    limit=self.max_pairs,
                    examined=examined,
                    partial_stats=_detach(stats),
                )
        if self.deadline_unix is not None:
            now = self._clock()
            if now >= self.deadline_unix:
                elapsed_ms = (now - self._started) * 1000.0
                budget = (
                    f"{self.deadline_ms:g}ms"
                    if self.deadline_ms is not None
                    else "the absolute deadline"
                )
                raise QueryTimeout(
                    f"query exceeded its deadline of {budget} "
                    f"(ran {elapsed_ms:.1f}ms in this process)",
                    deadline_ms=self.deadline_ms,
                    elapsed_ms=elapsed_ms,
                    partial_stats=_detach(stats),
                )

    def next_due(self, stats: "EvaluationStats") -> int:
        """The work count (``pairs_examined + operator_evals``) at which
        the checkpoint after this one is due: :data:`CHECK_STRIDE` units
        on, or the first unit that can take the pairs past ``max_pairs``,
        whichever comes first — so a pairs kill is exact to the slice of
        work that crossed the budget.
        """
        work = stats.pairs_examined + stats.operator_evals
        due = work + CHECK_STRIDE
        if self.max_pairs is not None:
            left = self.max_pairs - stats.pairs_examined
            due = min(due, work + left + 1)
        return due

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ResourceGovernor(deadline_unix={self.deadline_unix}, "
            f"max_pairs={self.max_pairs}, cancel={self.cancel!r})"
        )


def begin_run(
    options: "EngineOptions",
    patterns: "Sequence[Pattern]",
    op: str,
    **submit: Any,
) -> "tuple[RunRecorder | None, ResourceGovernor | None]":
    """Begin one run under ``options``: its journal recorder and governor.

    A :class:`QueryContext` is minted only when there is a journal to
    stamp; its ``query_id``/``trace_id`` label every event of the run,
    and the ``submit`` event (carrying ``submit``) opens the lifecycle
    under the first of ``patterns`` and how many more there are.  A
    governor exists when a budget or a cancel token is set; its deadline
    becomes an absolute instant here, so budgets are measured from
    submission, and the cancel token is pointed at it.
    """
    recorder = None
    if options.journal is not None:
        from repro.obs.journal import RunRecorder

        ctx = QueryContext.new(
            deadline_ms=options.deadline_ms, max_pairs=options.max_pairs
        )
        label = str(patterns[0])
        if len(patterns) > 1:
            label += f" (+{len(patterns) - 1} more)"
        recorder = RunRecorder(options.journal, ctx, pattern=label, op=op)
        recorder.submit(**submit)
    governor = None
    if options.governed or options.cancel is not None:
        deadline_ms = options.deadline_ms
        governor = ResourceGovernor(
            deadline_unix=None if deadline_ms is None else time.time() + deadline_ms / 1000.0,
            deadline_ms=deadline_ms,
            max_pairs=options.max_pairs,
            cancel=options.cancel,
        )
        if options.cancel is not None:
            options.cancel.governor = governor
    return recorder, governor


def _detach(stats: "EvaluationStats | None") -> "EvaluationStats | None":
    """A registry-free snapshot of ``stats`` safe to carry in an error.

    Detaching prevents double-publishing when the partial stats object
    outlives the evaluation, and keeps the error picklable (registries
    hold locks).
    """
    if stats is None:
        return None
    from repro.core.eval.base import EvaluationStats

    return EvaluationStats(
        operator_evals=stats.operator_evals,
        pairs_examined=stats.pairs_examined,
        incidents_produced=stats.incidents_produced,
        max_live_incidents=stats.max_live_incidents,
        per_operator=dict(stats.per_operator),
    )
