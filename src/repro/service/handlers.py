"""Transport-independent request handling for the query daemon.

:class:`QueryService` is the whole service minus the sockets: it owns
the :class:`~repro.service.catalog.StoreCatalog`, the shared
:class:`~repro.cache.manager.QueryCache`, the
:class:`~repro.obs.metrics.MetricsRegistry`, the optional
:class:`~repro.obs.journal.QueryJournal`, and the
:class:`~repro.service.admission.AdmissionController`, and routes one
``(method, path, body)`` triple to one :class:`ServiceResponse`.  The
HTTP layer (:mod:`repro.service.server`) is a thin byte adapter over
:meth:`QueryService.dispatch`; tests and the in-process benchmarks
(``benchmarks/bench_system.py``, ``benchmarks/bench_live.py``) call
``dispatch`` directly and exercise the identical code path.

Request lifecycle of an evaluation endpoint (``/v1/query``,
``/v1/batch``, ``/v1/explain``, ``/v1/analyze``):

1. schema-validate the body (:mod:`repro.service.schemas`, 400 on
   violation);
2. clamp the requested options against the server ceilings
   (:meth:`~repro.service.config.ServiceConfig.clamp`, which returns
   the request's :class:`~repro.core.options.EngineOptions`);
3. take an admission slot (429 when saturated);
4. build the request's :class:`~repro.core.governor.QueryContext` from
   the ``query_id``/``trace_id`` :meth:`QueryService.dispatch` minted —
   echoed as ``X-Query-Id`` / ``X-Trace-Id`` response headers, stamped
   on the journal lifecycle and the in-flight entry;
5. finish the options with the shared metrics, the shared cache and the
   in-flight entry's cancel token, and evaluate under the governor they
   ask for; map kills and library errors through
   :func:`~repro.service.errors.map_exception` (the server survives,
   the client gets structured JSON with partial stats);
6. close the request's record, the lifecycle's terminal event, from
   which the metrics, the live hub, the journal and the access log are
   all written.

Anything not mapped there becomes an opaque 500 — internal details
never leak onto the wire.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping
from urllib.parse import parse_qs

from repro import __version__
from repro.cache.manager import QueryCache
from repro.cache.policy import CachePolicy
from repro.core.errors import LogStoreError, ReproError
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.governor import QueryContext, new_query_id, new_trace_id
from repro.core.options import EngineOptions
from repro.core.query import Query
from repro.obs.journal import make_event
from repro.obs.live import SloEngine, WindowedAggregator
from repro.obs.log import get_logger
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from repro.service.admission import AdmissionController
from repro.service.catalog import StoreCatalog
from repro.service.config import ServiceConfig
from repro.service.errors import (
    ServiceError,
    bad_request,
    map_exception,
    method_not_allowed,
    not_found,
    stats_to_dict,
    unavailable,
)
from repro.service.inflight import InflightRegistry
from repro.service.schemas import (
    decode_json_body,
    parse_analyze_request,
    parse_append_request,
    parse_batch_request,
    parse_explain_request,
    parse_lint_request,
    parse_query_request,
    parse_window_param,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.model import Log
    from repro.obs.journal import QueryJournal

__all__ = ["QueryService", "ServiceResponse"]

#: The structured access-log channel (one JSON line per request when
#: :attr:`ServiceConfig.access_log` is on).
_ACCESS_LOG = get_logger("service.access")


class EncodedJson:
    """JSON text a handler wrote ahead of the response encoder, which
    copies it into the document as it stands (the rows of a fat reply)."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


class _HoldsEncoded(Exception):
    """Raised out of ``json.dumps`` on reaching an :class:`EncodedJson`."""


def _default(value: Any) -> str:
    if isinstance(value, EncodedJson):
        raise _HoldsEncoded
    return str(value)


def _write(value: Any, parts: list[str]) -> None:
    """Append ``json.dumps(value, sort_keys=True, default=str)`` to
    ``parts``, with every :class:`EncodedJson` in ``value`` as the text
    it holds.

    Whatever holds none is encoded by that one call.  A dict (string
    keys) or a sequence that holds one is written member by member
    around it; nothing stands in for the text and is searched for
    afterwards, so no request text echoed in the same document can be
    mistaken for it, and a fat text is copied once, by the final join.
    """
    try:
        parts.append(json.dumps(value, sort_keys=True, default=_default))
        return
    except _HoldsEncoded:
        pass
    if isinstance(value, EncodedJson):
        parts.append(value.text)
    elif isinstance(value, dict):
        before = "{"
        for key in sorted(value):
            parts.append(f"{before}{json.dumps(key)}: ")
            _write(value[key], parts)
            before = ", "
        parts.append("}")
    else:
        before = "["
        for item in value:
            parts.append(before)
            _write(item, parts)
            before = ", "
        parts.append("]")


@dataclass
class ServiceResponse:
    """One rendered response: status, JSON payload (or raw text), headers.

    ``media_type`` overrides the content type the transport sends (the
    dashboard serves HTML); without it, ``text`` responses use the
    Prometheus 0.0.4 type and payload responses JSON.  The encoded body
    is cached — telemetry measures response sizes, so the transport
    must not pay a second encode.
    """

    status: int
    payload: Any = None
    text: str | None = None
    headers: dict[str, str] = field(default_factory=dict)
    media_type: str | None = None
    _encoded: bytes | None = field(default=None, repr=False, compare=False)

    @property
    def content_type(self) -> str:
        if self.media_type is not None:
            return self.media_type
        if self.text is not None:
            return "text/plain; version=0.0.4; charset=utf-8"
        return "application/json; charset=utf-8"

    def body(self) -> bytes:
        if self._encoded is None:
            if self.text is not None:
                self._encoded = self.text.encode("utf-8")
            else:
                parts: list[str] = []
                _write(self.payload, parts)
                parts.append("\n")
                self._encoded = "".join(parts).encode("utf-8")
        return self._encoded


def _ids(record: dict[str, Any]) -> dict[str, str]:
    """The response headers that echo a request's ids."""
    return {"X-Query-Id": record["query_id"], "X-Trace-Id": record["trace_id"]}


def _error_response(
    error: ServiceError, record: dict[str, Any] | None = None
) -> ServiceResponse:
    headers = {} if record is None else _ids(record)
    headers.update(error.headers())
    return ServiceResponse(error.status, payload=error.payload(), headers=headers)


class QueryService:
    """The daemon's brain: routing, admission, evaluation, journaling."""

    def __init__(
        self,
        catalog: StoreCatalog,
        config: ServiceConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        journal: "QueryJournal | None" = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if catalog.metrics is None:
            catalog.metrics = self.metrics
        self.catalog = catalog
        self.journal = journal
        policy = CachePolicy()
        if self.config.cache_bytes is not None:
            policy = policy.with_budget(self.config.cache_bytes)
        self.cache = QueryCache(policy, metrics=self.metrics)
        self.admission = AdmissionController(
            max_concurrency=self.config.max_concurrency,
            queue_depth=self.config.queue_depth,
            queue_timeout_ms=self.config.queue_timeout_ms,
            retry_after_s=self.config.retry_after_s,
            metrics=self.metrics,
        )
        self.inflight = InflightRegistry()
        self.live: WindowedAggregator | None = None
        self.slo: SloEngine | None = None
        if self.config.telemetry:
            self.live = WindowedAggregator(
                bucket_s=self.config.telemetry_bucket_s,
                window_s=self.config.telemetry_window_s,
                top_k=self.config.telemetry_top_k,
            )
            self.slo = SloEngine(self.config.slo_policy(), self.live)
        self._draining = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self) -> None:
        """Refuse new evaluation/append work (503); in-flight finishes."""
        self._draining.set()

    def close(self) -> None:
        """Drain and flush the journal sink (idempotent)."""
        self.drain()
        if self.journal is not None:
            self.journal.close()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def dispatch(
        self, method: str, path: str, body: bytes | None = None
    ) -> ServiceResponse:
        """Route one request; never raises — errors become responses.

        Each request gets one record, a plain dict in the shape of a
        journal terminal event: its ids, its endpoint label, and what
        the handlers fill in (store, pattern, pairs, incidents, cache
        layer, clamped options).  It is passed down the call like the
        request itself, so it survives the error unwind, and
        :meth:`_observe` derives every output from it — so the
        ``service.*`` metrics, the live hub, the journal and the access
        log can never disagree about what happened.
        """
        started, cpu0 = time.perf_counter(), time.thread_time()
        method = method.upper()
        path, _, query_string = path.partition("?")
        params: dict[str, list[str]] = (
            parse_qs(query_string) if query_string else {}
        )
        record = make_event(
            "finish",
            query_id=new_query_id(),
            trace_id=new_trace_id(),
            endpoint=self._endpoint(path),
            status="ok",
            store=None,
            pattern=None,
            pairs=0,
            incidents=0,
            cache_layer=None,
            clamped=[],
        )
        try:
            response = self._route(
                method, path.rstrip("/") or "/", body, record, params
            )
        except Exception as exc:  # noqa: BLE001 - the opaque-500 contract
            error = map_exception(exc)
            record.update(status="error", error=error.code)
            if error.partial_stats is not None:  # a governor kill
                record.update(
                    event="killed",
                    reason=type(exc).__name__,
                    message=str(exc),
                    pairs=error.partial_stats.pairs_examined,
                )
            response = _error_response(error, record)
        self._observe(method, path, response, record, started, cpu0)
        return response

    def _route(
        self,
        method: str,
        path: str,
        body: bytes | None,
        record: dict[str, Any],
        params: Mapping[str, list[str]],
    ) -> ServiceResponse:
        route: Callable[..., ServiceResponse] | None = None
        allowed: tuple[str, ...] = ()
        args: tuple[Any, ...] = ()

        if path == "/healthz":
            route, allowed = self._get_healthz, ("GET",)
        elif path == "/version":
            route, allowed = self._get_version, ("GET",)
        elif path == "/metrics":
            route, allowed = self._get_metrics, ("GET",)
        elif path == "/dashboard":
            route, allowed = self._get_dashboard, ("GET",)
        elif path == "/v1/admin/stats":
            route, allowed = self._get_admin_stats, ("GET",)
            args = (params,)
        elif path == "/v1/admin/slo":
            route, allowed = self._get_admin_slo, ("GET",)
        elif path == "/v1/admin/inflight":
            route, allowed = self._get_admin_inflight, ("GET",)
        elif path.startswith("/v1/admin/inflight/"):
            rest = path[len("/v1/admin/inflight/") :]
            if rest and "/" not in rest:
                route, allowed = self._delete_admin_inflight, ("DELETE",)
                args = (rest,)
        elif path == "/v1/admin/cache":
            route, allowed = self._get_admin_cache, ("GET",)
        elif path == "/v1/logs":
            route, allowed = self._get_logs, ("GET",)
        elif path.startswith("/v1/logs/"):
            rest = path[len("/v1/logs/") :]
            if rest.endswith("/stats") and rest.count("/") == 1:
                route, allowed = self._get_log_stats, ("GET",)
                args = (rest[: -len("/stats")],)
            elif rest.endswith("/records") and rest.count("/") == 1:
                route, allowed = self._post_append, ("POST",)
                args = (rest[: -len("/records")], body)
            elif "/" not in rest and rest:
                route, allowed = self._get_log_stats, ("GET",)
                args = (rest,)
        elif path == "/v1/query":
            route, allowed = self._post_query, ("POST",)
            args = (body, record)
        elif path == "/v1/batch":
            route, allowed = self._post_batch, ("POST",)
            args = (body, record)
        elif path == "/v1/lint":
            route, allowed = self._post_lint, ("POST",)
            args = (body,)
        elif path == "/v1/explain":
            route, allowed = self._post_explain, ("POST",)
            args = (body, record)
        elif path == "/v1/analyze":
            route, allowed = self._post_analyze, ("POST",)
            args = (body, record)

        if route is None:
            raise not_found(f"no route for {path}")
        if method not in allowed:
            raise method_not_allowed(method, path, allowed)
        response = route(*args)
        for name, value in _ids(record).items():
            response.headers.setdefault(name, value)
        return response

    @staticmethod
    def _endpoint(path: str) -> str:
        """Normalised endpoint label: path parameters become templates so
        label cardinality stays bounded."""
        endpoint = path.rstrip("/") or "/"
        if endpoint.startswith("/v1/logs/"):
            endpoint = (
                "/v1/logs/{name}/records"
                if endpoint.endswith("/records")
                else "/v1/logs/{name}/stats"
            )
        elif endpoint.startswith("/v1/admin/inflight/"):
            endpoint = "/v1/admin/inflight/{query_id}"
        return endpoint

    def _observe(
        self,
        method: str,
        path: str,
        response: ServiceResponse,
        record: dict[str, Any],
        started: float,
        cpu0: float,
    ) -> None:
        """Close the request's record and derive every output from it.

        The clocks stop after the response is encoded, so ``wall_ms`` is
        the whole dispatch: admission wait and encode included.
        """
        size = len(response.body())
        record["wall_ms"] = (time.perf_counter() - started) * 1000.0
        record["cpu_ms"] = (time.thread_time() - cpu0) * 1000.0
        record["ts_unix"] = time.time()
        record["http_status"] = status = response.status
        endpoint = record["endpoint"]
        self.metrics.counter(
            "service.requests",
            labels={"endpoint": endpoint, "status": str(status)},
        ).inc()
        self.metrics.histogram(
            "service.request_seconds", labels={"endpoint": endpoint}
        ).observe(record["wall_ms"] / 1000.0)
        self.metrics.histogram(
            "service.response_bytes",
            DEFAULT_SIZE_BUCKETS,
            labels={"endpoint": endpoint},
        ).observe(float(size))
        # a record with a pattern was admitted: _evaluate opened its
        # lifecycle with a submit event
        if self.journal is not None and record["pattern"] is not None:
            self.journal.write(record)
        if self.live is not None:
            self.live.observe_event(record)
        if self.config.access_log:
            _ACCESS_LOG.info(
                json.dumps(
                    {
                        "method": method,
                        "path": path,
                        "endpoint": endpoint,
                        "status": status,
                        "duration_ms": round(record["wall_ms"], 3),
                        "bytes": size,
                        "query_id": record["query_id"],
                        "killed": record["event"] == "killed",
                        "shed": status == 429,
                        "clamped": record["clamped"],
                        "store": record["store"],
                    },
                    sort_keys=True,
                )
            )

    # ------------------------------------------------------------------
    # plumbing shared by the evaluation endpoints
    # ------------------------------------------------------------------

    def _check_draining(self) -> None:
        if self.draining:
            raise unavailable(
                "server is draining for shutdown",
                retry_after_s=self.config.retry_after_s,
            )

    def _snapshot(self, name: str) -> "Log":
        try:
            return self.catalog.snapshot(name)
        except LogStoreError as exc:
            if "unknown log" in str(exc):
                raise not_found(
                    f"unknown log {name!r}",
                    details={"available": list(self.catalog.names())},
                ) from None
            raise

    def _evaluate(
        self,
        *,
        pattern: str,
        op: str,
        options: EngineOptions,
        clamped: tuple[str, ...],
        record: dict[str, Any],
        body: Callable[[EngineOptions], dict[str, Any]],
        store: str | None = None,
    ) -> ServiceResponse:
        """Run ``body`` under admission control, the inflight registry
        and the journal lifecycle.

        The request's context carries the ids :meth:`dispatch` minted;
        an admitted request opens its lifecycle with a ``submit`` event,
        and :meth:`_observe` closes it with the request's record, so each
        request owns exactly one submit → finish/killed lifecycle
        (``body`` evaluates journal-free).  ``body`` receives ``options``
        finished with the shared metrics, the shared cache (when the
        request left it on) and the in-flight entry's cancel token, and
        returns the success payload; what it raises, :meth:`dispatch`
        maps.
        """
        self._check_draining()
        with self.admission.slot():
            ctx = QueryContext(
                query_id=record["query_id"],
                trace_id=record["trace_id"],
                deadline_ms=options.deadline_ms,
                max_pairs=options.max_pairs,
            )
            if self.journal is not None:
                self.journal.emit(
                    "submit",
                    query_id=ctx.query_id,
                    trace_id=ctx.trace_id,
                    pattern=pattern,
                    op=op,
                    deadline_ms=ctx.deadline_ms,
                    max_pairs=ctx.max_pairs,
                )
            record.update(pattern=pattern, store=store, clamped=list(clamped))
            entry = self.inflight.register(ctx, pattern=pattern, op=op, store=store)
            try:
                payload = body(
                    options.replace(
                        metrics=self.metrics,
                        cache=self.cache if options.cache else None,
                        cancel=entry.cancel,
                    )
                )
                if entry.cancel.is_set() and entry.cancel.governor is not None:
                    # a kill that came after the run's last checkpoint, while
                    # the reply was built: the query is listed until here
                    entry.cancel.governor.check(payload.get("_stats_obj"))
            finally:
                self.inflight.remove(ctx.query_id)
        stats = payload.pop("_stats_obj", None)
        record.update(
            pairs=0 if stats is None else stats.pairs_examined,
            incidents=payload["count"],
            cache_layer=payload.get("cache_layer"),
        )
        if clamped:
            payload["clamped"] = list(clamped)
        return ServiceResponse(200, payload=payload)

    # ------------------------------------------------------------------
    # GET endpoints
    # ------------------------------------------------------------------

    def _get_healthz(self) -> ServiceResponse:
        return ServiceResponse(
            200,
            payload={
                "status": "draining" if self.draining else "ok",
                "version": __version__,
                "stores": len(self.catalog),
                "admission": self.admission.snapshot(),
            },
        )

    def _get_version(self) -> ServiceResponse:
        return ServiceResponse(
            200, payload={"service": "repro.service", "version": __version__}
        )

    def _get_metrics(self) -> ServiceResponse:
        return ServiceResponse(200, text=self.metrics.to_prometheus())

    def _get_logs(self) -> ServiceResponse:
        return ServiceResponse(200, payload={"logs": self.catalog.describe()})

    # ------------------------------------------------------------------
    # the admin plane (auth-free: bind to a trusted network only)
    # ------------------------------------------------------------------
    # Admin endpoints deliberately bypass admission control: when the
    # worker pool is saturated is exactly when an operator needs to see
    # in-flight queries and kill one.

    def _live_or_404(self) -> WindowedAggregator:
        if self.live is None:
            raise not_found(
                "telemetry is disabled on this server "
                "(ServiceConfig.telemetry=False)"
            )
        return self.live

    def _get_admin_stats(
        self, params: Mapping[str, list[str]]
    ) -> ServiceResponse:
        live = self._live_or_404()
        window = parse_window_param(
            params,
            default_s=min(300.0, self.config.telemetry_window_s),
            max_s=self.config.telemetry_window_s,
        )
        payload = live.window(window).report()
        payload["observed_total"] = live.observed
        return ServiceResponse(200, payload=payload)

    def _get_admin_slo(self) -> ServiceResponse:
        self._live_or_404()
        assert self.slo is not None  # established with self.live
        return ServiceResponse(200, payload=self.slo.report())

    def _get_admin_inflight(self) -> ServiceResponse:
        rows = self.inflight.list()
        return ServiceResponse(
            200,
            payload={
                "count": len(rows),
                "queries": rows,
                "cancelled_total": self.inflight.cancelled_total,
            },
        )

    def _delete_admin_inflight(self, query_id: str) -> ServiceResponse:
        entry = self.inflight.request_cancel(
            query_id, reason="killed by operator via DELETE /v1/admin/inflight"
        )
        if entry is None:
            raise not_found(
                f"no in-flight query {query_id!r}",
                details={"inflight": [row["query_id"] for row in self.inflight.list()]},
            )
        self.metrics.counter("service.admin_cancellations").inc()
        return ServiceResponse(
            200,
            payload={
                "query_id": entry.query_id,
                "trace_id": entry.trace_id,
                "cancelled": True,
                "cooperative": True,
                "pattern": entry.pattern,
                "op": entry.op,
                "store": entry.store,
                "elapsed_s": time.time() - entry.started_unix,
                "pairs": entry.pairs_so_far(),
            },
        )

    def _get_admin_cache(self) -> ServiceResponse:
        stats = self.cache.stats()

        def ratio(hits: int, misses: int) -> float:
            total = hits + misses
            return hits / total if total else 0.0

        payload: dict[str, Any] = dict(stats)
        payload["result_hit_ratio"] = ratio(
            stats["result_hits"], stats["result_misses"]
        )
        payload["hottest"] = self.cache.hot_keys(limit=10)
        return ServiceResponse(200, payload=payload)

    def _get_dashboard(self) -> ServiceResponse:
        from repro.service.dashboard import DASHBOARD_HTML

        return ServiceResponse(
            200, text=DASHBOARD_HTML, media_type="text/html; charset=utf-8"
        )

    def _get_log_stats(self, name: str) -> ServiceResponse:
        from repro.logstore.stats import summarize

        store = self._store(name)
        snapshot = self._snapshot(name)
        summary = summarize(snapshot)
        return ServiceResponse(
            200,
            payload={
                "name": name,
                "epoch": store.epoch,
                "lineage": store.lineage,
                "total_records": summary.total_records,
                "instance_count": summary.instance_count,
                "completed_instances": summary.completed_instances,
                "length_min": summary.length_min,
                "length_median": summary.length_median,
                "length_p95": summary.length_p95,
                "length_max": summary.length_max,
                "activity_counts": dict(summary.activity_counts),
                "attribute_names": sorted(summary.attribute_names),
            },
        )

    def _store(self, name: str):
        try:
            return self.catalog.get(name)
        except LogStoreError:
            raise not_found(
                f"unknown log {name!r}",
                details={"available": list(self.catalog.names())},
            ) from None

    # ------------------------------------------------------------------
    # POST endpoints
    # ------------------------------------------------------------------

    def _post_append(self, name: str, body: bytes | None) -> ServiceResponse:
        self._check_draining()
        request = parse_append_request(decode_json_body(body, what="append"))
        self._store(name)  # 404 before any mutation
        result = self.catalog.append_batch(name, request.records)
        return ServiceResponse(200, payload=result)

    def _post_query(
        self, body: bytes | None, record: dict[str, Any]
    ) -> ServiceResponse:
        request = parse_query_request(decode_json_body(body, what="query"))
        options, clamped = self.config.clamp(request.options)
        snapshot = self._snapshot(request.log)

        def run(options: EngineOptions) -> dict[str, Any]:
            query = Query(request.pattern, options)
            payload: dict[str, Any] = {
                "log": request.log,
                "pattern": request.pattern,
                "mode": request.mode,
                "epoch": snapshot.epoch,
            }
            if request.mode == "exists":
                payload["exists"] = query.exists(snapshot)
                payload["count"] = int(payload["exists"])
            elif request.mode == "count":
                payload["count"] = query.count(snapshot)
            else:
                incidents = query.run(snapshot)
                payload["count"] = len(incidents)
                if request.mode == "instances":
                    payload["instances"] = incidents.wids()
                else:
                    rows, shown = incidents.rows_json(request.limit)
                    payload["incidents"] = EncodedJson(rows)
                    payload["truncated"] = shown < len(incidents)
            stats = query.engine.last_stats
            payload["stats"] = stats_to_dict(stats)
            payload["cache_layer"] = query.last_cache_layer
            payload["_stats_obj"] = stats
            return payload

        return self._evaluate(
            pattern=request.pattern,
            op="http.query",
            options=options,
            clamped=clamped,
            record=record,
            body=run,
            store=request.log,
        )

    def _post_batch(
        self, body: bytes | None, record: dict[str, Any]
    ) -> ServiceResponse:
        request = parse_batch_request(decode_json_body(body, what="batch"))
        options, clamped = self.config.clamp(request.options)
        if options.engine not in (None, VectorizedEngine.name):
            raise bad_request(
                f"a batch is one shared scan on the {VectorizedEngine.name!r} "
                f"engine; got engine {options.engine!r}",
                details={"available": [VectorizedEngine.name]},
            )
        snapshot = self._snapshot(request.log)

        def run(options: EngineOptions) -> dict[str, Any]:
            outcome = Query.evaluate_batch(snapshot, request.patterns, options)
            results = []
            for text, incidents in zip(request.patterns, outcome.results):
                rows, shown = incidents.rows_json(request.limit)
                results.append(
                    {
                        "pattern": text,
                        "count": len(incidents),
                        "incidents": EncodedJson(rows),
                        "truncated": shown < len(incidents),
                    }
                )
            return {
                "log": request.log,
                "epoch": snapshot.epoch,
                "count": sum(item["count"] for item in results),
                "results": results,
                "stats": stats_to_dict(outcome.stats),
                "shared_hits": outcome.shared_hits,
                "cache_hits": outcome.cache_hits,
                "subsumed": outcome.subsumed,
                "proofs": outcome.subsumed,  # kept on the wire: equals subsumed
                # constants of the wire contract: the scan is in-process
                "backend": "serial",
                "jobs": 1,
                "_stats_obj": outcome.stats,
            }

        return self._evaluate(
            pattern=" ; ".join(request.patterns),
            op="http.batch",
            options=options,
            clamped=clamped,
            record=record,
            body=run,
            store=request.log,
        )

    def _post_lint(self, body: bytes | None) -> ServiceResponse:
        from repro.core.lint import Linter, Severity
        from repro.core.parser import parse_with_spans

        request = parse_lint_request(decode_json_body(body, what="lint"))
        parsed = parse_with_spans(request.pattern)  # 400 via map_exception
        log = self._snapshot(request.log) if request.log is not None else None
        linter = Linter.for_context(log=log)
        diagnostics = linter.lint(parsed)
        return ServiceResponse(
            200,
            payload={
                "pattern": request.pattern,
                "ok": not any(d.severity == Severity.ERROR for d in diagnostics),
                "diagnostics": [d.to_dict() for d in diagnostics],
            },
        )

    def _post_explain(
        self, body: bytes | None, record: dict[str, Any]
    ) -> ServiceResponse:
        request = parse_explain_request(decode_json_body(body, what="explain"))
        options, clamped = self.config.clamp(request.options)
        snapshot = self._snapshot(request.log)

        def run(options: EngineOptions) -> dict[str, Any]:
            query = Query(request.pattern, options)
            plan = query.plan(snapshot)
            return {
                "log": request.log,
                "pattern": request.pattern,
                "optimized": str(plan.optimized),
                "changed": plan.optimized != query.pattern,
                "explain": query.explain(snapshot),
                "count": 0,
            }

        return self._evaluate(
            pattern=request.pattern,
            op="http.explain",
            options=options,
            clamped=clamped,
            record=record,
            body=run,
            store=request.log,
        )

    def _post_analyze(
        self, body: bytes | None, record: dict[str, Any]
    ) -> ServiceResponse:
        from repro.analysis import PatternProver, default_prover
        from repro.core.parser import parse

        request = parse_analyze_request(decode_json_body(body, what="analyze"))
        options, clamped = self.config.clamp({})

        def run(_: EngineOptions) -> dict[str, Any]:
            prover = (
                PatternProver(max_states=request.max_states)
                if request.max_states is not None
                else default_prover()
            )
            p, q = parse(request.p), parse(request.q)
            if request.op == "equivalent":
                witness = prover.witness(p, q)
            else:
                witness = prover.containment_witness(p, q)
            return {
                "op": request.op,
                "p": request.p,
                "q": request.q,
                "result": witness is None,
                "witness": None if witness is None else witness.format(),
                "count": 0,
            }

        return self._evaluate(
            pattern=f"{request.p} ~ {request.q}",
            op="http.analyze",
            options=options,
            clamped=clamped,
            record=record,
            body=run,
        )
