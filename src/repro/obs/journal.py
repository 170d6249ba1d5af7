"""Query-lifecycle journal: structured JSONL events for every query.

The ROADMAP's service north-star needs an audit trail — *what did every
query cost, and why did this one die?* — that spans and metrics alone do
not give: spans are per-evaluation trees and metrics are process-global
aggregates.  The journal is the per-query record in between, one JSON
object per line, each tagged ``repro.obs.journal/v1``:

* ``submit``   — query text, operation, budgets; opens the lifecycle;
* ``plan``     — optimizer outcome (optimized text, whether it changed);
* ``cache``    — a result-cache probe and whether it hit;
* ``evaluate`` — one evaluation body (pairs examined, incidents);
* ``finish``   — terminal: wall/CPU time, peak allocation
  (``tracemalloc``), pairs examined, incidents, cache attribution;
* ``killed``   — terminal: the governor stopped the query (reason +
  partial accounting).

Every event carries the ``query_id``/``trace_id`` minted at submission
(:class:`~repro.core.governor.QueryContext`), so one run reads back as
one query record.

Views over a journal — :func:`slow_queries`, :func:`filter_events`,
:func:`top_patterns` — back the ``repro-logs events`` / ``repro-logs
top`` CLI surfaces.  :func:`validate_journal_event` is the
dependency-free structural validator in the :mod:`repro.obs.export`
style; the CI smoke job runs it over every line it produces.
"""

from __future__ import annotations

import json
import os
import threading
import time
import tracemalloc
from typing import IO, Any, Iterable, Mapping, Sequence, TYPE_CHECKING

from repro.obs.export import SchemaError
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.eval.base import EvaluationStats
    from repro.core.governor import QueryContext

__all__ = [
    "JOURNAL_SCHEMA",
    "EVENT_KINDS",
    "TERMINAL_KINDS",
    "QueryJournal",
    "RunRecorder",
    "ResourceAccount",
    "make_event",
    "read_journal",
    "validate_journal_event",
    "validate_journal",
    "filter_events",
    "slow_queries",
    "top_patterns",
]

JOURNAL_SCHEMA = "repro.obs.journal/v1"

#: Every event kind, in rough lifecycle order.
EVENT_KINDS: tuple[str, ...] = (
    "submit",
    "plan",
    "cache",
    "shard",  # nothing emits it any more; kept so journals on disk still validate
    "evaluate",
    "finish",
    "killed",
)

#: The kinds that close a lifecycle (exactly one per query run).
TERMINAL_KINDS: tuple[str, ...] = ("finish", "killed")


def make_event(
    kind: str, *, query_id: str, trace_id: str, **payload: Any
) -> dict[str, Any]:
    """Build one journal event dict (no sequence number yet; the journal
    assigns ``seq`` in :meth:`QueryJournal.write`)."""
    if kind not in EVENT_KINDS:
        raise ValueError(f"unknown journal event kind {kind!r}")
    event: dict[str, Any] = {
        "schema": JOURNAL_SCHEMA,
        "event": kind,
        "query_id": query_id,
        "trace_id": trace_id,
        "ts_unix": time.time(),
        "pid": os.getpid(),
    }
    event.update(payload)
    return event


class QueryJournal:
    """A thread-safe JSONL sink for query-lifecycle events.

    Parameters
    ----------
    sink:
        A path (opened in append mode, one JSON object per line) or an
        open text file-like object.  ``None`` keeps events in memory
        only (:attr:`events`) — handy for tests and embedding.
    metrics:
        Optional registry; every written event increments the
        ``journal.events`` counter labelled by event kind.
    memory:
        Whether :class:`ResourceAccount` instances driven by this
        journal sample peak allocation via ``tracemalloc`` (the one
        journal feature with measurable overhead; default on).
    """

    def __init__(
        self,
        sink: "str | os.PathLike[str] | IO[str] | None" = None,
        *,
        metrics: MetricsRegistry | None = None,
        memory: bool = True,
    ) -> None:
        self.metrics = metrics
        self.memory = memory
        self.events: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._seq = 0
        self._owns_stream = False
        self.path: str | None = None
        self._stream: IO[str] | None
        if sink is None:
            self._stream = None
        elif isinstance(sink, (str, os.PathLike)):
            self.path = os.fspath(sink)
            self._stream = open(self.path, "a", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = sink

    def emit(
        self, kind: str, *, query_id: str, trace_id: str, **payload: Any
    ) -> dict[str, Any]:
        """Build and write one event; returns the written dict."""
        return self.write(
            make_event(kind, query_id=query_id, trace_id=trace_id, **payload)
        )

    def write(self, event: Mapping[str, Any]) -> dict[str, Any]:
        """Sequence and persist one event: ``seq`` is a single monotonic
        series per journal, whichever thread produced the event."""
        record = dict(event)
        record.setdefault("schema", JOURNAL_SCHEMA)
        with self._lock:
            record["seq"] = self._seq
            self._seq += 1
            if self._stream is not None:
                self._stream.write(json.dumps(record, ensure_ascii=False) + "\n")
                self._stream.flush()
            else:
                self.events.append(record)
        if self.metrics is not None:
            self.metrics.counter(
                "journal.events", labels={"event": str(record.get("event"))}
            ).inc()
        return record

    def close(self) -> None:
        if self._owns_stream and self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "QueryJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        target = self.path if self.path is not None else "memory"
        return f"QueryJournal({target!r}, seq={self._seq})"


class ResourceAccount:
    """Wall + CPU time and peak-allocation sampling for one query run.

    Wall time uses ``perf_counter``, CPU time ``process_time``.  Peak
    allocation is sampled with ``tracemalloc``: if tracing is already
    on, the peak counter is reset and read; otherwise tracing is started
    for the duration and stopped after, so the account never disturbs an
    enclosing profiler.
    """

    def __init__(self, *, memory: bool = True) -> None:
        self.memory = memory
        self.wall_ms: float | None = None
        self.cpu_ms: float | None = None
        self.peak_alloc_bytes: int | None = None
        self._wall0 = 0.0
        self._cpu0 = 0.0
        self._owns_tracemalloc = False
        self._started = False

    def start(self) -> None:
        self._started = True
        if self.memory:
            if tracemalloc.is_tracing():
                tracemalloc.reset_peak()
            else:
                tracemalloc.start()
                self._owns_tracemalloc = True
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def stop(self) -> None:
        """Freeze the counters (idempotent; safe if never started)."""
        if not self._started:
            return
        self._started = False
        self.wall_ms = (time.perf_counter() - self._wall0) * 1000.0
        self.cpu_ms = (time.process_time() - self._cpu0) * 1000.0
        if self.memory:
            self.peak_alloc_bytes = tracemalloc.get_traced_memory()[1]
            if self._owns_tracemalloc:
                tracemalloc.stop()
                self._owns_tracemalloc = False


class RunRecorder:
    """One query run's lifecycle: stamps context onto journal events.

    Built by :class:`~repro.core.query.Query` (and the batch evaluator)
    when a journal is configured; every method is a thin, typed wrapper
    over :meth:`QueryJournal.emit` with the run's ``query_id`` /
    ``trace_id`` applied, plus resource accounting for the terminal
    event.
    """

    def __init__(
        self,
        journal: QueryJournal,
        ctx: "QueryContext",
        *,
        pattern: str,
        op: str = "run",
    ) -> None:
        self.journal = journal
        self.ctx = ctx
        self.pattern = pattern
        self.op = op
        self.account = ResourceAccount(memory=journal.memory)
        self._closed = False

    def _emit(self, kind: str, **payload: Any) -> dict[str, Any]:
        return self.journal.emit(
            kind,
            query_id=self.ctx.query_id,
            trace_id=self.ctx.trace_id,
            **payload,
        )

    def submit(self, **payload: Any) -> None:
        """Open the lifecycle and start the resource account."""
        self._emit(
            "submit",
            pattern=self.pattern,
            op=self.op,
            deadline_ms=self.ctx.deadline_ms,
            max_pairs=self.ctx.max_pairs,
            **payload,
        )
        self.account.start()

    def plan(self, *, optimized: str, changed: bool, **payload: Any) -> None:
        self._emit("plan", optimized=optimized, changed=changed, **payload)

    def cache_probe(self, *, probe: str, hit: bool, **payload: Any) -> None:
        self._emit("cache", probe=probe, hit=hit, **payload)

    def evaluate(self, *, pairs: int, incidents: int, **payload: Any) -> None:
        """One evaluation body."""
        self._emit("evaluate", pairs=pairs, incidents=incidents, **payload)

    def finish(
        self,
        *,
        stats: "EvaluationStats | None" = None,
        incidents: int = 0,
        **payload: Any,
    ) -> dict[str, Any]:
        """Terminal success event with the full resource account."""
        self._closed = True
        self.account.stop()
        return self._emit(
            "finish",
            status="ok",
            pattern=self.pattern,
            op=self.op,
            wall_ms=self.account.wall_ms or 0.0,
            cpu_ms=self.account.cpu_ms or 0.0,
            peak_alloc_bytes=self.account.peak_alloc_bytes,
            pairs=0 if stats is None else stats.pairs_examined,
            operator_evals=0 if stats is None else stats.operator_evals,
            incidents=incidents,
            **payload,
        )

    def killed(self, exc: BaseException, **payload: Any) -> dict[str, Any]:
        """Terminal governor-kill event with partial accounting."""
        self._closed = True
        self.account.stop()
        stats = getattr(exc, "partial_stats", None)
        return self._emit(
            "killed",
            reason=type(exc).__name__,
            message=str(exc),
            pattern=self.pattern,
            op=self.op,
            wall_ms=self.account.wall_ms or 0.0,
            cpu_ms=self.account.cpu_ms or 0.0,
            peak_alloc_bytes=self.account.peak_alloc_bytes,
            pairs=0 if stats is None else stats.pairs_examined,
            **payload,
        )

    @property
    def closed(self) -> bool:
        """Whether a terminal event has been emitted."""
        return self._closed


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _is_num(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Required payload fields per event kind: name -> checker tag.
_KIND_FIELDS: dict[str, dict[str, str]] = {
    "submit": {"pattern": "str", "op": "str"},
    "plan": {"optimized": "str", "changed": "bool"},
    "cache": {"probe": "str", "hit": "bool"},
    "shard": {"shards": "int", "backend": "str", "jobs": "int", "strategy": "str"},
    "evaluate": {"pairs": "int", "incidents": "int"},
    "finish": {
        "status": "str",
        "pattern": "str",
        "wall_ms": "num",
        "cpu_ms": "num",
        "pairs": "int",
        "incidents": "int",
    },
    "killed": {"reason": "str", "pattern": "str", "wall_ms": "num", "pairs": "int"},
}

_CHECKS = {
    "str": (lambda v: isinstance(v, str) and bool(v), "a non-empty string"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
            "a non-negative integer"),
    "num": (lambda v: _is_num(v) and v >= 0, "a non-negative number"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
}


def validate_journal_event(doc: Any) -> None:
    """Raise :class:`SchemaError` unless ``doc`` is a valid journal event."""
    _require(isinstance(doc, Mapping), "journal event must be an object")
    _require(
        doc.get("schema") == JOURNAL_SCHEMA, f"schema must be {JOURNAL_SCHEMA!r}"
    )
    kind = doc.get("event")
    _require(
        kind in EVENT_KINDS,
        f"event must be one of {EVENT_KINDS}, got {kind!r}",
    )
    for field in ("query_id", "trace_id"):
        value = doc.get(field)
        _require(
            isinstance(value, str) and bool(value),
            f"journal event is missing {field!r}",
        )
    _require(
        _is_num(doc.get("ts_unix")) and doc["ts_unix"] >= 0,
        "ts_unix must be a non-negative number",
    )
    seq = doc.get("seq")
    _require(
        isinstance(seq, int) and not isinstance(seq, bool) and seq >= 0,
        "seq must be a non-negative integer",
    )
    pid = doc.get("pid")
    _require(
        isinstance(pid, int) and not isinstance(pid, bool) and pid >= 1,
        "pid must be a positive integer",
    )
    for field, tag in _KIND_FIELDS[str(kind)].items():
        _require(field in doc, f"{kind} event is missing {field!r}")
        check, expected = _CHECKS[tag]
        _require(check(doc[field]), f"{kind} event: {field!r} must be {expected}")


def validate_journal(events: Iterable[Any]) -> int:
    """Validate a whole journal; returns the number of events checked.

    Beyond per-event structure, checks the cross-event invariant that
    every ``query_id`` appearing in a terminal event has exactly one
    terminal event and a matching ``submit``.
    """
    count = 0
    submitted: set[str] = set()
    closed: set[str] = set()
    for index, event in enumerate(events):
        try:
            validate_journal_event(event)
        except SchemaError as error:
            raise SchemaError(f"event {index}: {error}") from None
        count += 1
        qid = event["query_id"]
        if event["event"] == "submit":
            submitted.add(qid)
        elif event["event"] in TERMINAL_KINDS:
            _require(
                qid not in closed,
                f"event {index}: query {qid!r} has two terminal events",
            )
            _require(
                qid in submitted,
                f"event {index}: terminal event for {qid!r} without a submit",
            )
            closed.add(qid)
    return count


def read_journal(
    source: "str | os.PathLike[str] | IO[str]", *, validate: bool = False
) -> list[dict[str, Any]]:
    """Load a JSONL journal file into a list of event dicts.

    Raises :class:`SchemaError` on malformed JSON, and (with
    ``validate=True``) on schema violations.
    """
    if isinstance(source, (str, os.PathLike)):
        stream: IO[str] = open(os.fspath(source), "r", encoding="utf-8")
        owns = True
    else:
        stream, owns = source, False
    events: list[dict[str, Any]] = []
    try:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise SchemaError(f"line {lineno}: not valid JSON ({error})") from None
    finally:
        if owns:
            stream.close()
    if validate:
        validate_journal(events)
    return events


# ---------------------------------------------------------------------------
# views: slow-query log, filtering, per-pattern ranking
# ---------------------------------------------------------------------------

def filter_events(
    events: Iterable[Mapping[str, Any]],
    *,
    query_id: str | None = None,
    kinds: Sequence[str] | None = None,
    pattern: str | None = None,
) -> list[dict[str, Any]]:
    """Events matching every given filter (None filters match all).

    ``pattern`` is a substring match on the event's ``pattern`` field,
    which submit and terminal events carry.
    """
    selected: list[dict[str, Any]] = []
    for event in events:
        if query_id is not None and event.get("query_id") != query_id:
            continue
        if kinds is not None and event.get("event") not in kinds:
            continue
        if pattern is not None and pattern not in str(event.get("pattern", "")):
            continue
        selected.append(dict(event))
    return selected


def slow_queries(
    events: Iterable[Mapping[str, Any]], *, threshold_ms: float
) -> list[dict[str, Any]]:
    """The slow-query log: terminal events at or above ``threshold_ms``
    wall time, slowest first."""
    slow = [
        dict(event)
        for event in events
        if event.get("event") in TERMINAL_KINDS
        and _is_num(event.get("wall_ms"))
        and event["wall_ms"] >= threshold_ms
    ]
    slow.sort(key=lambda e: e["wall_ms"], reverse=True)
    return slow


#: Rankable keys for :func:`top_patterns`.
TOP_KEYS: tuple[str, ...] = ("wall_ms", "cpu_ms", "pairs", "peak_alloc_bytes", "runs")


def top_patterns(
    events: Iterable[Mapping[str, Any]],
    *,
    by: str = "wall_ms",
    limit: int = 10,
) -> list[dict[str, Any]]:
    """Aggregate terminal events per pattern and rank by total cost.

    Each row sums ``wall_ms``/``cpu_ms``/``pairs`` over the pattern's
    runs, takes the max of ``peak_alloc_bytes``, and counts runs and
    governor kills — the ``repro-logs top`` surface.
    """
    if by not in TOP_KEYS:
        raise SchemaError(f"cannot rank by {by!r}; choose one of {TOP_KEYS}")
    rows: dict[str, dict[str, Any]] = {}
    for event in events:
        if event.get("event") not in TERMINAL_KINDS:
            continue
        pattern = str(event.get("pattern", "?"))
        row = rows.setdefault(
            pattern,
            {
                "pattern": pattern,
                "runs": 0,
                "killed": 0,
                "wall_ms": 0.0,
                "cpu_ms": 0.0,
                "pairs": 0,
                "peak_alloc_bytes": 0,
            },
        )
        row["runs"] += 1
        if event["event"] == "killed":
            row["killed"] += 1
        for key in ("wall_ms", "cpu_ms", "pairs"):
            if _is_num(event.get(key)):
                row[key] += event[key]
        peak = event.get("peak_alloc_bytes")
        if _is_num(peak) and peak > row["peak_alloc_bytes"]:
            row["peak_alloc_bytes"] = peak
    ranked = sorted(rows.values(), key=lambda r: r[by], reverse=True)
    return ranked[: limit if limit > 0 else len(ranked)]
