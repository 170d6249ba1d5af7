"""Per-layer attribution: an in-process replay with spans around each layer.

The spans are recorded from here, around the calls into each layer's
public functions (patched in for one request at a time and removed
again); nothing inside ``src/`` knows about them.  Three in-process
services built the way ``repro serve`` builds its own replay the same
requests turn by turn: one untraced, one traced, one with
``ServiceConfig(telemetry=False)``.  Their ``dispatch`` medians give the
tracing overhead and the price of telemetry; the traced one gives the
layer table.  End-to-end numbers never come from here.
"""

from __future__ import annotations

import importlib
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable

from .client import reply_correct
from .metrics import median
from .store import LOG_NAME, StoreInfo
from .workloads import QUERIES_PER_CYCLE, QUERY_PATH, Oracle, Op, Workload, query_body, script

#: Replayed sample: passes over the pool (cycles per pattern when live).
SAMPLE_PASSES = 4


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the span that caused it
    request: int  # spans of one request share it


class Tracer:
    """Spans in memory; the caller writes them out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        #: probes that could not be installed: span name -> reason
        self.missing: dict[str, str] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable, rename: Callable | None) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if rename is not None:
                    span.name = rename(name, args)
                return result

        return wrapper

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Install every probe of :data:`PROBES` for the duration of the block."""
        try:
            for name, module_name, path, rename in PROBES:
                try:
                    owner: Any = importlib.import_module(module_name)
                    *parents, attr = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    raw = vars(owner)[attr]
                except (ImportError, AttributeError, KeyError) as exc:
                    self.missing[name] = f"{module_name}:{path}: {exc!r}"
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    new: Any = type(raw)(self._wrap(name, raw.__func__, rename))
                else:
                    new = self._wrap(name, raw, rename)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield
        finally:
            while self._undo:
                owner, attr, raw = self._undo.pop()
                setattr(owner, attr, raw)


def _served_by(name: str, args: tuple) -> str:
    """``Query.run``/``count`` answered by the result layer is cache time."""
    return "cache.hit_run" if args[0].last_cache_layer == "result" else name


#: (span name, module, attribute path, rename hook).  Module globals are
#: patched where the caller looks them up, methods on their class.
PROBES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("schemas.decode", "repro.service.handlers", "decode_json_body", None),
    ("schemas.decode", "repro.service.handlers", "parse_query_request", None),
    ("schemas.decode", "repro.service.handlers", "parse_append_request", None),
    ("logstore.snapshot", "repro.service.catalog", "StoreCatalog.snapshot", None),
    ("logstore.append", "repro.service.catalog", "StoreCatalog.append_batch", None),
    ("columnar.build", "repro.columnar.column_log", "ColumnarLog.from_log", None),
    ("core.parse", "repro.core.query", "parse", None),
    ("core.plan", "repro.core.query", "Query.plan", None),
    ("eval.run", "repro.core.query", "Query.run", _served_by),
    ("eval.run", "repro.core.query", "Query.count", _served_by),
    ("incident.to_rows", "repro.core.incident", "IncidentSet.to_rows", None),
    ("handlers.encode", "repro.service.handlers", "ServiceResponse.body", None),
)

#: layer metric -> span name (p50 over the requests that entered the layer
#: of the time the request spent in spans of that name)
SPAN_METRICS = {
    "handlers.dispatch_ms": "handlers.dispatch",
    "handlers.encode_ms": "handlers.encode",
    "schemas.decode_ms": "schemas.decode",
    "logstore.snapshot_ms": "logstore.snapshot",
    "logstore.append_ms": "logstore.append",
    "columnar.build_ms": "columnar.build",
    "core.parse_ms": "core.parse",
    "core.plan_ms": "core.plan",
    "eval.run_ms": "eval.run",
    "incident.to_rows_ms": "incident.to_rows",
    "cache.hit_run_ms": "cache.hit_run",
}

T_METRICS = (
    *SPAN_METRICS,
    "handlers.other_ms",
    "logstore.load_s",
    "obs.telemetry_ms",
    "workflow.simulate_s",
    "trace.overhead_ratio",
)


class _Replica:
    """An in-process daemon built the way ``repro serve`` builds its own,
    playing connection 0's script."""

    def __init__(
        self, workload: Workload, store: StoreInfo, oracle: Oracle, *, telemetry: bool
    ) -> None:
        from repro.obs.metrics import MetricsRegistry
        from repro.service import QueryService, ServiceConfig, StoreCatalog

        registry = MetricsRegistry()
        catalog = StoreCatalog(metrics=registry)
        started = time.perf_counter()
        catalog.add_file(LOG_NAME, store.path)
        self.load_s = time.perf_counter() - started
        self.service = QueryService(
            catalog, ServiceConfig(telemetry=telemetry), metrics=registry
        )
        self.ops = script(workload, oracle, 0, store.instances + 1)
        self.durations_ms: list[float] = []
        for pattern in workload.pool:  # the socket run's oracle pass: fills the caches
            body = query_body(workload, pattern, mode="incidents")
            self.service.dispatch("POST", QUERY_PATH, body).body()
        for _ in range(1 + QUERIES_PER_CYCLE if workload.live else len(workload.pool)):
            self.play(next(self.ops), None)
        self.durations_ms.clear()

    def play(self, op: Op, tracer: Tracer | None) -> None:
        if tracer is None:
            started = time.perf_counter()
            response = self.service.dispatch("POST", op.path, op.body)
            elapsed = time.perf_counter() - started
        else:
            tracer.request += 1
            with tracer.patched(), tracer.span("handlers.dispatch") as root:
                response = self.service.dispatch("POST", op.path, op.body)
            elapsed = root.end - root.start
        self.durations_ms.append(elapsed * 1000.0)
        if not reply_correct(op, response.status, response.body()):
            raise RuntimeError(f"in-process reply to {op.kind} {op.body!r} is wrong")


def trace_workload(workload: Workload, store: StoreInfo, oracle: Oracle) -> dict:
    """Replay the fixed sample; returns ``layers`` (the ``T`` metrics),
    ``spans`` and the per-layer detail for the README table."""
    tracer = Tracer()
    replicas = {
        "untraced": _Replica(workload, store, oracle, telemetry=True),
        "traced": _Replica(workload, store, oracle, telemetry=True),
        "no_telemetry": _Replica(workload, store, oracle, telemetry=False),
    }
    unit = 1 + QUERIES_PER_CYCLE if workload.live else 1
    for turn in range(SAMPLE_PASSES * len(workload.pool)):
        order = list(replicas)
        order = order[turn % 3 :] + order[: turn % 3]  # no variant always goes first
        for variant in order:
            replica = replicas[variant]
            for _ in range(unit):
                replica.play(next(replica.ops), tracer if variant == "traced" else None)

    spans = tracer.spans
    requests: dict[int, dict[str, float]] = {}
    children_ms = [0.0] * len(spans)
    for span in spans:
        ms = (span.end - span.start) * 1000.0
        per_name = requests.setdefault(span.request, {})
        per_name[span.name] = per_name.get(span.name, 0.0) + ms
        if span.parent is not None:
            children_ms[span.parent] += ms
    other_ms = [
        (span.end - span.start) * 1000.0 - children_ms[index]
        for index, span in enumerate(spans)
        if span.name == "handlers.dispatch"
    ]

    def entered(name: str) -> list[float]:
        return [per_name[name] for per_name in requests.values() if name in per_name]

    layers: dict[str, float | None] = {
        metric: None if name in tracer.missing else median(entered(name))
        for metric, name in SPAN_METRICS.items()
    }
    untraced = median(replicas["untraced"].durations_ms)
    layers["handlers.other_ms"] = median(other_ms)
    layers["logstore.load_s"] = median([r.load_s for r in replicas.values()])
    layers["obs.telemetry_ms"] = untraced - median(replicas["no_telemetry"].durations_ms)
    layers["workflow.simulate_s"] = store.simulate_s
    layers["trace.overhead_ratio"] = median(replicas["traced"].durations_ms) / untraced
    return {
        "layers": layers,
        "missing": dict(tracer.missing),
        "detail": {
            "requests": len(requests),
            "other_min_ms": min(other_ms),
            "spans_per_request": {
                name: len(entered(name)) / len(requests) for name in SPAN_METRICS.values()
            },
        },
        "spans": [asdict(span) for span in spans],
    }


def null_layers(reason: str) -> dict:
    """What a run reports when the in-process replay itself cannot run."""
    return {
        "layers": {metric: None for metric in T_METRICS},
        "missing": {"*": reason},
        "detail": {},
        "spans": [],
    }
