"""Experiment O3 — live telemetry is (nearly) free.

The windowed aggregator (``repro.obs.live``) sits on the service's hot
dispatch path: every response — success, shed, or kill — funnels through
``QueryService._observe``, which records the outcome into the telemetry
ring plus two per-route histograms.  The acceptance gate for the admin
plane is that this whole observation layer costs within 5% of an
otherwise-identical service with ``ServiceConfig(telemetry=False)`` on
the warm-cache query path (the cheapest real request, so the worst case
for relative overhead).  ``test_live_window`` times the aggregator on its
own — 2 000 ``observe_event`` calls into a fresh ring and one trailing
5-minute window merge — so the pytest-benchmark record shows drift in
the aggregator itself.
"""

from __future__ import annotations

import json

from benchmarks.conftest import best_of
from repro.obs.live import WindowedAggregator
from repro.service import QueryService, ServiceConfig, StoreCatalog
from tests.support.workloads import clinic_log

PATTERN = "GetRefer -> CheckIn -> SeeDoctor"


def _warm_service(*, telemetry: bool) -> tuple[QueryService, bytes]:
    catalog = StoreCatalog()
    catalog.add_log("clinic", clinic_log(120, seed=42))
    service = QueryService(
        catalog, ServiceConfig(telemetry=telemetry)
    )
    body = json.dumps({"log": "clinic", "pattern": PATTERN}).encode()
    response = service.dispatch("POST", "/v1/query", body)  # prime the cache
    assert response.status == 200
    return service, body


def test_live_telemetry_overhead():
    """Warm-cache ``POST /v1/query`` dispatch with the telemetry hub on
    costs within 5% of the same dispatch with telemetry off.

    Both loops call ``response.body()`` — the real server encodes every
    response, and the telemetry path measures the encoded size, so the
    comparison must charge encoding to both variants.
    """
    on_service, on_body = _warm_service(telemetry=True)
    off_service, off_body = _warm_service(telemetry=False)
    repeats = 50

    def with_telemetry() -> None:
        for _ in range(repeats):
            response = on_service.dispatch("POST", "/v1/query", on_body)
            assert response.status == 200
            response.body()

    def without_telemetry() -> None:
        for _ in range(repeats):
            response = off_service.dispatch("POST", "/v1/query", off_body)
            assert response.status == 200
            response.body()

    best = best_of({"off": without_telemetry, "on": with_telemetry})
    overhead = best["on"] / best["off"] - 1.0
    assert on_service.live is not None and on_service.live.observed >= repeats
    assert off_service.live is None
    assert overhead <= 0.05, f"live telemetry overhead {overhead:.1%} exceeds 5%"


def test_live_window(benchmark):
    """Deterministic synthetic traffic over a 10-minute span, so the
    window merge walks many buckets with mixed attribution keys."""
    observations = 2_000
    routes = ("/v1/query", "/v1/batch", "/v1/explain")
    stores = ("clinic", "orders", "loans")
    events = [
        {
            "event": "killed" if i % 17 == 0 else "finish",
            "endpoint": routes[i % 3],
            "store": stores[i % 3],
            "pattern": f"A -> B{i % 7}",
            "http_status": 200 if i % 17 else 408,
            "wall_ms": 1.0 + i % 50,
            "pairs": 100,
            "ts_unix": 600.0 + i * (600.0 / observations),
        }
        for i in range(observations)
    ]

    def run() -> float:
        aggregator = WindowedAggregator(bucket_s=10.0, window_s=900.0)
        for event in events:
            aggregator.observe_event(event)
        snapshot = aggregator.window(300.0, now=1200.0)
        assert snapshot.total.count > 0
        return snapshot.total.latency.quantile(0.95)

    benchmark.group = "O3-live"
    assert benchmark(run) > 0
