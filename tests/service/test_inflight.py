"""Acceptance: an in-flight query is visible to the admin plane and an
operator ``DELETE`` kills it cooperatively over real sockets.

The client sees the structured cancellation contract — 503
``unavailable`` with the partial :class:`EvaluationStats` the governor
detached at the kill checkpoint — and the journal records the ``killed``
terminal event, so a post-hoc ``repro-logs slo`` replay counts the
operator kill exactly like the live aggregator did.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs.journal import QueryJournal
from repro.service import QueryService, ServiceConfig, ServiceServer, StoreCatalog
from repro.service.inflight import InflightRegistry
from repro.workflow.engine import SimulationConfig, WorkflowEngine
from repro.workflow.models import clinic_referral_workflow

from .test_http import _request

#: Slow enough to be caught in flight on any machine (~0.3s locally),
#: fast enough not to drag the suite when the kill path fails.
HEAVY_PATTERN = (
    "(GetRefer | UpdateRefer) -> (CheckIn | CheckOut) -> "
    "(SeeDoctor | Treatment) -> (CheckOut | GetReimburse)"
)


@pytest.fixture(scope="module")
def big_log():
    engine = WorkflowEngine(clinic_referral_workflow())
    return engine.run(SimulationConfig(instances=3000, seed=7))


@pytest.fixture()
def server(big_log):
    catalog = StoreCatalog()
    catalog.add_log("clinic", big_log)
    service = QueryService(
        catalog, ServiceConfig(port=0), journal=QueryJournal(None)
    )
    with ServiceServer(service) as running:
        yield running


def _poll_inflight(url: str, *, deadline_s: float = 10.0) -> dict:
    """Wait until the admin plane lists at least one in-flight query."""
    waited = 0.0
    while waited < deadline_s:
        _, _, body = _request(url, "GET", "/v1/admin/inflight")
        doc = json.loads(body)
        if doc["count"]:
            return doc
        time.sleep(0.002)
        waited += 0.002
    raise AssertionError("query never appeared in /v1/admin/inflight")


def _kill_in_flight(server, path: str, body: dict):
    """POST ``body`` on a client thread, DELETE it once the admin plane
    lists it; returns (listed snapshot, DELETE reply, client response)."""
    outcome: dict = {}

    def client() -> None:
        outcome["response"] = _request(server.url, "POST", path, body)

    thread = threading.Thread(target=client)
    thread.start()
    try:
        (snapshot,) = _poll_inflight(server.url)["queries"]
        status, _, reply = _request(
            server.url, "DELETE", "/v1/admin/inflight/" + snapshot["query_id"]
        )
        assert status == 200
    finally:
        thread.join(timeout=30)
    assert not thread.is_alive()
    return snapshot, json.loads(reply), outcome["response"]


def test_admin_delete_kills_a_listed_query(server) -> None:
    snapshot, contract, response = _kill_in_flight(
        server,
        "/v1/query",
        {
            "log": "clinic",
            "pattern": HEAVY_PATTERN,
            "options": {"cache": False, "optimize": False},
        },
    )
    assert snapshot["query_id"].startswith("q-")
    assert snapshot["op"] == "http.query"
    assert snapshot["store"] == "clinic"
    assert snapshot["pattern"] == HEAVY_PATTERN
    assert snapshot["elapsed_s"] >= 0.0
    assert not snapshot["cancelling"]
    assert contract["cancelled"] is True
    assert contract["cooperative"] is True
    assert contract["query_id"] == snapshot["query_id"]
    assert contract["trace_id"].startswith("t-")
    assert contract["store"] == "clinic"

    # the client sees the structured cancellation: 503 unavailable with
    # the reason and the partial stats the governor detached at the kill
    status, _, body = response
    assert status == 503
    error = json.loads(body)["error"]
    assert error["code"] == "unavailable"
    assert "killed by operator" in error["message"]
    assert error["partial_stats"]["pairs_examined"] >= 0

    # the registry drained and counted the kill
    _, _, body = _request(server.url, "GET", "/v1/admin/inflight")
    doc = json.loads(body)
    assert doc == {"count": 0, "queries": [], "cancelled_total": 1}

    # a second DELETE of the same id is a clean 404, not a crash
    status, _, _ = _request(
        server.url, "DELETE", "/v1/admin/inflight/" + snapshot["query_id"]
    )
    assert status == 404

    # the journal recorded the terminal killed event for the same query
    events = server.service.journal.events
    killed = [e for e in events if e["event"] == "killed"]
    assert len(killed) == 1
    assert killed[0]["query_id"] == snapshot["query_id"]
    assert killed[0]["http_status"] == 503
    assert killed[0]["store"] == "clinic"

    # the kill burned availability budget in the live aggregator
    _, _, body = _request(server.url, "GET", "/v1/admin/slo")
    slo = json.loads(body)
    assert "availability" in slo["breaching"]

    # and the operator action is a counter in the exposition
    _, _, body = _request(server.url, "GET", "/metrics")
    assert b"repro_service_admin_cancellations 1" in body


def test_admin_delete_kills_a_listed_batch(server) -> None:
    """``/v1/batch`` hands its cancel token to the one shared scan, so the
    operator kill reaches a batch exactly as it reaches a query."""
    snapshot, contract, response = _kill_in_flight(
        server,
        "/v1/batch",
        {
            "log": "clinic",
            "patterns": [HEAVY_PATTERN, "GetRefer -> CheckIn"],
            "options": {"cache": False, "optimize": False},
        },
    )
    assert snapshot["op"] == "http.batch"
    assert contract["cancelled"] is True
    status, _, body = response
    assert status == 503
    error = json.loads(body)["error"]
    assert error["code"] == "unavailable"
    assert "killed by operator" in error["message"]
    killed = [e for e in server.service.journal.events if e["event"] == "killed"]
    assert [e["query_id"] for e in killed] == [snapshot["query_id"]]


#: A batch that runs long enough (≈ 1.3 s in process) to be seen
#: mid-scan, with headroom under the 1 000 000 ``max_incidents`` ceiling
#: (≈ 450 000 incidents); ``limit: 0`` keeps the reply small.
LONG_BATCH = {
    "log": "clinic",
    "patterns": ["!GetRefer -> !CheckIn -> !SeeDoctor", "GetRefer -> CheckIn"],
    "limit": 0,
    "options": {"cache": False, "optimize": False},
}


def test_a_running_batch_reports_live_pairs(server) -> None:
    """``/v1/admin/inflight`` and the DELETE reply read a batch's pairs
    off its governor, the way they read a query's."""
    outcome: dict = {}

    def client() -> None:
        outcome["response"] = _request(server.url, "POST", "/v1/batch", LONG_BATCH)

    thread = threading.Thread(target=client)
    thread.start()
    try:
        seen = None
        deadline = time.monotonic() + 30.0
        while seen is None and thread.is_alive() and time.monotonic() < deadline:
            _, _, body = _request(server.url, "GET", "/v1/admin/inflight")
            rows = json.loads(body)["queries"]
            seen = next((row for row in rows if row["pairs"] > 0), None)
            time.sleep(0.002)
        assert seen is not None, "the batch never showed pairs > 0 while running"
        status, _, reply = _request(
            server.url, "DELETE", "/v1/admin/inflight/" + seen["query_id"]
        )
    finally:
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert seen["op"] == "http.batch"
    assert status == 200
    assert json.loads(reply)["pairs"] >= seen["pairs"] > 0
    assert outcome["response"][0] == 503  # and the kill reached the scan


def test_completed_queries_leave_the_registry(server) -> None:
    status, _, _ = _request(
        server.url,
        "POST",
        "/v1/query",
        {"log": "clinic", "pattern": "GetRefer -> CheckIn"},
    )
    assert status == 200
    _, _, body = _request(server.url, "GET", "/v1/admin/inflight")
    assert json.loads(body)["count"] == 0


class TestRegistryUnit:
    class _Ctx:
        query_id = "q-1"
        trace_id = "t-1"

    def test_register_list_remove(self):
        registry = InflightRegistry()
        entry = registry.register(
            self._Ctx(), pattern="A -> B", op="http.query", store="s"
        )
        assert len(registry) == 1
        (row,) = registry.list()
        assert row["query_id"] == "q-1"
        assert row["pairs"] == 0  # no engine attached yet
        registry.remove("q-1")
        assert registry.list() == []
        registry.remove("q-1")  # idempotent

    def test_request_cancel_sets_token_with_reason(self):
        registry = InflightRegistry()
        entry = registry.register(self._Ctx(), pattern="A", op="http.query")
        cancelled = registry.request_cancel("q-1", reason="operator")
        assert cancelled is entry
        assert entry.cancel.is_set()
        assert entry.cancel.reason == "operator"
        assert registry.cancelled_total == 1
        (row,) = registry.list()
        assert row["cancelling"]
        assert registry.request_cancel("q-missing", reason="x") is None
