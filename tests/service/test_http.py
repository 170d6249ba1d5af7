"""The daemon over real sockets: concurrent clients, bounding, shedding.

This is the acceptance-criteria test: one daemon process serves ≥ 8
concurrent ``POST /v1/query`` clients with byte-identical incident sets
to direct :class:`Query` evaluation, the admission pool bounds in-flight
evaluations, and saturation sheds with 429 instead of degrading.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.options import EngineOptions
from repro.core.query import Query
from repro.service import QueryService, ServiceConfig, ServiceServer, StoreCatalog

PATTERNS = [
    "GetRefer",
    "GetRefer -> CheckIn",
    "CheckIn -> Treatment",
    "GetRefer -> (CheckIn | CheckOut)",
]


@pytest.fixture()
def server(clinic_log):
    catalog = StoreCatalog()
    catalog.add_log("clinic", clinic_log)
    service = QueryService(
        catalog, ServiceConfig(port=0, max_concurrency=2, queue_depth=32)
    )
    with ServiceServer(service) as running:
        yield running


def _request(url: str, method: str, path: str, body: dict | None = None):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def test_eight_concurrent_clients_byte_identical(server, clinic_log) -> None:
    expected = {}
    for pattern in PATTERNS:
        rows = Query(pattern, EngineOptions()).run(clinic_log).to_rows()
        expected[pattern] = json.loads(
            json.dumps([{**row, "lsns": list(row["lsns"])} for row in rows])
        )

    jobs = [PATTERNS[i % len(PATTERNS)] for i in range(8)]

    def run(pattern: str):
        return pattern, _request(
            server.url,
            "POST",
            "/v1/query",
            {"log": "clinic", "pattern": pattern, "options": {"cache": False}},
        )

    with ThreadPoolExecutor(max_workers=8) as pool:
        outcomes = list(pool.map(run, jobs))

    for pattern, (status, headers, body) in outcomes:
        assert status == 200
        assert headers["X-Query-Id"].startswith("q-")
        assert headers["X-Trace-Id"].startswith("t-")
        doc = json.loads(body)
        assert doc["incidents"] == expected[pattern]
        assert doc["count"] == len(expected[pattern])

    # the semaphore held: never more than max_concurrency evaluating
    snapshot = server.service.admission.snapshot()
    assert snapshot["admitted"] == 8
    assert snapshot["peak_in_flight"] <= 2
    assert snapshot["rejected"] == 0


def test_sheds_with_429_over_http(clinic_log) -> None:
    catalog = StoreCatalog()
    catalog.add_log("clinic", clinic_log)
    service = QueryService(
        catalog,
        ServiceConfig(port=0, max_concurrency=1, queue_depth=0, retry_after_s=2.0),
    )
    with ServiceServer(service) as server:
        with service.admission.slot():  # saturate deterministically
            status, headers, body = _request(
                server.url,
                "POST",
                "/v1/query",
                {"log": "clinic", "pattern": "GetRefer"},
            )
        assert status == 429
        assert headers["Retry-After"] == "2"
        assert json.loads(body)["error"]["code"] == "saturated"
        # a slot freed: the very next request succeeds — no degradation
        status, _, _ = _request(
            server.url, "POST", "/v1/query",
            {"log": "clinic", "pattern": "GetRefer"},
        )
        assert status == 200


def test_metrics_exposition_parses_over_http(server) -> None:
    _request(server.url, "POST", "/v1/query", {"log": "clinic", "pattern": "GetRefer"})
    status, headers, body = _request(server.url, "GET", "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    for line in body.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        assert name
        float(value)  # every sample value must parse


def test_404_and_method_contract_over_http(server) -> None:
    status, _, _ = _request(server.url, "GET", "/nope")
    assert status == 404
    status, _, body = _request(server.url, "PUT", "/v1/query", {})
    assert status == 405
    assert json.loads(body)["error"]["details"]["allowed"] == ["POST"]


def test_payload_too_large_over_http(clinic_log) -> None:
    catalog = StoreCatalog()
    catalog.add_log("clinic", clinic_log)
    service = QueryService(catalog, ServiceConfig(port=0, max_body_bytes=64))
    with ServiceServer(service) as server:
        status, _, body = _request(
            server.url,
            "POST",
            "/v1/query",
            {"log": "clinic", "pattern": "A" * 200},
        )
    assert status == 413
    assert json.loads(body)["error"]["code"] == "payload_too_large"


def test_server_stop_drains(server) -> None:
    status, _, _ = _request(server.url, "GET", "/healthz")
    assert status == 200
    server.stop()
    assert server.service.draining


def test_a_client_that_resets_before_the_reply_is_not_an_error(server, monkeypatch) -> None:
    """The client is gone (RST) by the time the reply is ready: neither
    write raises out of the handler, the daemon prints no traceback, the
    request leaves nothing behind and the next connection is served."""
    import socket
    import struct
    import threading

    gone, finished, errors = threading.Event(), threading.Event(), []
    dispatch = server.service.dispatch

    def reply_after_the_reset(method, path, body=None):
        response = dispatch(method, path, body)
        if path == "/v1/query":
            assert gone.wait(timeout=30)
        return response

    shutdown_request = server._httpd.shutdown_request

    def shutdown_and_tell(request):
        shutdown_request(request)
        finished.set()

    monkeypatch.setattr(server.service, "dispatch", reply_after_the_reset)
    monkeypatch.setattr(server._httpd, "shutdown_request", shutdown_and_tell)
    monkeypatch.setattr(server._httpd, "handle_error", lambda *args: errors.append(args))

    body = json.dumps(
        {
            "log": "clinic",
            "pattern": "SeeDoctor & PayTreatment",
            "mode": "incidents",
            "options": {"cache": False},
        }
    ).encode()
    head = (
        f"POST /v1/query HTTP/1.1\r\nHost: {server.host}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode()
    client = socket.create_connection((server.host, server.port), timeout=30)
    client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    client.sendall(head + body)
    while server.service.admission.snapshot()["admitted"] < 1:  # it was read
        assert not finished.wait(timeout=0.01)
    client.close()  # linger 0: a reset, not a FIN
    gone.set()
    assert finished.wait(timeout=30)
    assert errors == []

    status, _, reply = _request(server.url, "GET", "/v1/admin/inflight")
    assert status == 200
    assert json.loads(reply)["count"] == 0
    status, _, reply = _request(server.url, "GET", "/healthz")
    admission = json.loads(reply)["admission"]
    assert (admission["in_flight"], admission["queued"], admission["admitted"]) == (0, 0, 1)
    status, _, reply = _request(
        server.url, "POST", "/v1/query", {"log": "clinic", "pattern": "SeeDoctor & PayTreatment"}
    )
    assert status == 200 and json.loads(reply)["count"] > 0


def test_no_reader_sees_part_of_a_batch(server) -> None:
    """While one client posts append batches, four others read the epoch
    (``/v1/logs`` and query replies): it only ever stands between
    batches, and what a query counts is what that epoch holds."""
    import sys
    import threading

    batch = 3000  # records per batch, one whole instance: milliseconds to apply
    rounds = 8
    _, _, body = _request(server.url, "GET", "/v1/logs")
    base = json.loads(body)["logs"][0]["epoch"]
    _, _, body = _request(
        server.url, "POST", "/v1/query", {"log": "clinic", "pattern": "Tick", "mode": "count"}
    )
    assert json.loads(body)["count"] == 0
    done = threading.Event()
    seen: list[tuple[int, int | None]] = []  # (epoch, Tick count or None)
    errors: list[str] = []

    def writer() -> None:
        try:
            for _ in range(rounds):
                _, _, body = _request(server.url, "GET", "/v1/logs")
                wid = json.loads(body)["logs"][0]["instances"] + 1
                records = [{"activity": "START", "wid": wid}]
                records += [{"activity": "Tick", "wid": wid}] * (batch - 2)
                records.append({"activity": "END", "wid": wid})
                status, _, body = _request(
                    server.url, "POST", "/v1/logs/clinic/records", {"records": records}
                )
                if status != 200:
                    errors.append(f"append answered {status}: {body[:200]!r}")
        finally:
            done.set()

    def reader(query: bool) -> None:
        while not done.is_set():
            if query:
                status, _, body = _request(
                    server.url,
                    "POST",
                    "/v1/query",
                    {"log": "clinic", "pattern": "Tick", "mode": "count"},
                )
                doc = json.loads(body)
                seen.append((doc["epoch"], doc["count"]))
            else:
                status, _, body = _request(server.url, "GET", "/v1/logs")
                seen.append((json.loads(body)["logs"][0]["epoch"], None))
            if status != 200:
                errors.append(f"reader got {status}")

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(i % 2 == 0,)) for i in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(seen) > rounds
    torn = [(e, c) for e, c in seen if (e - base) % batch]
    assert torn == []
    assert all(c == (e - base) // batch * (batch - 2) for e, c in seen if c is not None)
    _, _, body = _request(server.url, "GET", "/v1/logs")
    assert json.loads(body)["logs"][0]["epoch"] == base + rounds * batch
