"""One account per request: the terminal journal event.

:meth:`QueryService.dispatch` builds one record per request and derives
the ``service.*`` metrics, the live hub, the journal and the access log
from it.  The live hub therefore reports exactly what a replay of the
journal reports (``repro-logs slo``); requests refused before a slot is
taken reach the hub but not the journal; and the record's CPU time is
the request thread's own.
"""

from __future__ import annotations

import json
import logging
import time

from repro.core.model import Log
from repro.obs.journal import validate_journal
from repro.obs.live import WindowedAggregator
from repro.service import ServiceConfig
from tests.support.workloads import clinic_log


def post(service, path, body):
    return service.dispatch("POST", path, json.dumps(body).encode())


def cancel_on_arrival(service, monkeypatch):
    """Make the next admitted request find its cancel token already set,
    as an operator's ``DELETE /v1/admin/inflight/{id}`` would."""
    register = service.inflight.register

    def register_and_cancel(ctx, **fields):
        entry = register(ctx, **fields)
        service.inflight.request_cancel(ctx.query_id, reason="killed by operator")
        monkeypatch.setattr(service.inflight, "register", register)
        return entry

    monkeypatch.setattr(service.inflight, "register", register_and_cancel)


QUERY = {"log": "clinic", "pattern": "GetRefer -> CheckIn"}


def test_the_live_hub_equals_the_replay_of_its_journal(make_service, monkeypatch):
    service = make_service(journal=True)
    statuses = [
        post(service, "/v1/query", dict(QUERY, mode=mode)).status
        for mode in ("incidents", "instances", "count", "exists")
    ]
    statuses.append(
        post(service, "/v1/batch", {"log": "clinic", "patterns": ["GetRefer", "CheckIn"]}).status
    )
    statuses.append(post(service, "/v1/explain", QUERY).status)
    statuses.append(post(service, "/v1/query", {"log": "clinic", "pattern": "A ->"}).status)
    statuses.append(
        post(service, "/v1/query", dict(QUERY, options={"deadline_ms": 0.001, "cache": False})).status
    )
    cancel_on_arrival(service, monkeypatch)
    statuses.append(post(service, "/v1/query", dict(QUERY, options={"cache": False})).status)
    assert statuses == [200] * 6 + [400, 408, 503]

    events = service.journal.events
    validate_journal(events)
    now = time.time()
    live = service.live.window(300.0, now=now).report()
    replay = WindowedAggregator()
    assert replay.replay(events) == len(statuses)
    assert replay.window(300.0, now=now).report() == live
    assert (live["requests"], live["errors"], live["killed"]) == (9, 2, 2)
    assert {row["key"]: row["count"] for row in live["routes"]} == {
        "/v1/query": 7, "/v1/batch": 1, "/v1/explain": 1,
    }  # fmt: skip
    # the 400 is an answered client error, not a kill
    (bad,) = [e for e in events if e.get("http_status") == 400]
    assert (bad["event"], bad["status"], bad["error"]) == ("finish", "error", "bad_request")
    assert [e["reason"] for e in events if e["event"] == "killed"] == [
        "QueryTimeout", "QueryCancelled",
    ]  # fmt: skip


def test_refused_requests_reach_the_hub_and_metrics_but_not_the_journal(make_service):
    service = make_service(ServiceConfig(max_concurrency=1, queue_depth=0), journal=True)
    refused = [
        post(service, "/v1/query", {"log": "clinic"}),  # schema: 400
        post(service, "/v1/query", {"log": "absent", "pattern": "GetRefer"}),  # 404
    ]
    with service.admission.slot():  # the one slot is taken: 429
        refused.append(post(service, "/v1/query", QUERY))
    service.drain()  # 503
    refused.append(post(service, "/v1/query", QUERY))
    assert [response.status for response in refused] == [400, 404, 429, 503]
    assert service.journal.events == []
    report = service.live.window(300.0).report()
    assert (report["requests"], report["errors"], report["killed"]) == (4, 1, 0)
    text = service.metrics.to_prometheus()
    for status in (400, 404, 429, 503):
        assert f'repro_service_requests{{endpoint="/v1/query",status="{status}"}} 1' in text


def test_the_access_log_line_is_read_off_the_terminal_event(make_service, caplog):
    service = make_service(ServiceConfig(access_log=True, max_pairs_ceiling=10_000), journal=True)
    with caplog.at_level(logging.INFO, logger="repro.service.access"):
        response = post(service, "/v1/query", dict(QUERY, options={"max_pairs": 10**9}))
    assert response.status == 200
    (line,) = [json.loads(r.message) for r in caplog.records]
    finish = service.journal.events[-1]
    assert finish["event"] == "finish" and finish["endpoint"] == "/v1/query"
    assert line["query_id"] == finish["query_id"] == response.headers["X-Query-Id"]
    assert line["duration_ms"] == round(finish["wall_ms"], 3)
    assert line["status"] == finish["http_status"] == 200
    assert line["store"] == finish["store"] == "clinic"
    assert line["clamped"] == finish["clamped"] == ["max_pairs"]
    assert finish["incidents"] == response.payload["count"]
    assert finish["pairs"] == response.payload["stats"]["pairs_examined"]
    assert finish["cache_layer"] == response.payload["cache_layer"]


def test_a_requests_cpu_is_its_own_thread(make_service, spinner):
    """At ~50 % of the interpreter each, a request that charged the
    whole process would read ``cpu_ms`` ≈ ``wall_ms``."""
    service = make_service(journal=True, extra_logs={"big": clinic_log(900, seed=2)})
    body = {
        "log": "big",
        "pattern": "GetRefer -> (CheckIn -> SeeDoctor)",
        "mode": "count",
        "options": {"engine": "naive", "optimize": False, "cache": False},
    }
    wall = cpu = 0.0
    while wall < 100.0:
        assert post(service, "/v1/query", body).status == 200
        finish = service.journal.events[-1]
        wall, cpu = wall + finish["wall_ms"], cpu + finish["cpu_ms"]
    assert cpu <= 0.75 * wall, (cpu, wall)


def test_a_killed_batch_journals_the_pairs_it_was_killed_at(make_service):
    """A batch is one stats and one governor account: its ``killed`` event
    carries the pairs ``max_pairs`` was crossed at, not one query's."""
    service = make_service(journal=True, extra_logs={"big": clinic_log(200, seed=3)})
    body = {
        "log": "big",
        "patterns": ["GetRefer -> CheckIn", "UpdateRefer -> GetReimburse"],
        "options": {"max_pairs": 200},
    }
    response = post(service, "/v1/batch", body)
    assert response.status == 422
    killed = service.journal.events[-1]
    assert killed["event"] == "killed" and killed["reason"] == "QueryBudgetExceeded"
    assert killed["pairs"] == 201
    assert "(examined 201)" in killed["message"]


def test_a_killed_count_is_journaled_killed_with_its_positions(make_service):
    """A count's scanned positions are its pairs: a ``max_pairs`` kill of
    one answers 422 with them as ``partial_stats`` and is one kill in the
    journal and in the live hub."""
    service = make_service(journal=True, extra_logs={"hot": Log.from_traces([["A"] * 300])})
    body = {"log": "hot", "pattern": "A -> A -> A", "mode": "count", "options": {"max_pairs": 100}}
    response = post(service, "/v1/query", body)
    assert response.status == 422
    error = json.loads(response.body())["error"]
    assert error["partial_stats"]["pairs_examined"] == 900
    killed = service.journal.events[-1]
    assert killed["event"] == "killed" and killed["reason"] == "QueryBudgetExceeded"
    assert killed["pairs"] == 900
    assert "(examined 900)" in killed["message"]
    assert service.live.window(300.0, now=time.time()).report()["killed"] == 1
