"""The admin plane: windowed stats, SLOs, in-flight introspection,
cache health, the dashboard, and the per-request observation fan-out
(``service.*`` histograms + the structured access log).

Everything here drives :meth:`QueryService.dispatch` directly — the
real-socket cancellation contract lives in ``test_inflight.py``.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.core.errors import ReproError
from repro.service import ServiceConfig


def payload(response):
    assert response.content_type == "application/json; charset=utf-8"
    return response.payload


def post_query(service, pattern="GetRefer -> CheckIn", **extra):
    body = {"log": "clinic", "pattern": pattern, **extra}
    return service.dispatch("POST", "/v1/query", json.dumps(body).encode())


class TestAdminStats:
    def test_windowed_report_attributes_route_store_and_pattern(self, service):
        assert post_query(service).status == 200
        doc = payload(service.dispatch("GET", "/v1/admin/stats"))
        assert doc["requests"] == 1
        assert doc["errors"] == 0
        assert doc["observed_total"] == 1
        assert [row["key"] for row in doc["routes"]] == ["/v1/query"]
        assert [row["key"] for row in doc["stores"]] == ["clinic"]
        assert [row["key"] for row in doc["patterns"]] == ["GetRefer -> CheckIn"]
        for row in doc["routes"]:
            assert row["p50_s"] <= row["p95_s"] <= row["p99_s"]
        assert doc["latency"]["count"] == 1

    def test_admin_traffic_itself_is_observed(self, service):
        service.dispatch("GET", "/v1/admin/stats")
        doc = payload(service.dispatch("GET", "/v1/admin/stats"))
        assert doc["requests"] >= 1  # the previous admin hit is in-window

    def test_window_param_selects_the_span(self, service):
        post_query(service)
        doc = payload(service.dispatch("GET", "/v1/admin/stats?window=60"))
        assert doc["window_s"] == 60.0

    def test_window_param_validation(self, service):
        for query_string in ("window=nope", "window=-5", "window=nan"):
            response = service.dispatch("GET", f"/v1/admin/stats?{query_string}")
            assert response.status == 400
            assert payload(response)["error"]["code"] == "bad_request"
        over = service.dispatch("GET", "/v1/admin/stats?window=999999")
        assert over.status == 400

    def test_deadline_kill_shows_up_as_killed_and_error(self, service):
        response = post_query(
            service,
            pattern="GetRefer -> (CheckIn | CheckOut)",
            options={"deadline_ms": 0.001, "cache": False},
        )
        assert response.status == 408
        doc = payload(service.dispatch("GET", "/v1/admin/stats"))
        assert doc["killed"] == 1
        assert doc["errors"] == 1

    def test_telemetry_off_returns_404(self, make_service):
        service = make_service(ServiceConfig(telemetry=False))
        assert service.live is None
        for path in ("/v1/admin/stats", "/v1/admin/slo"):
            assert service.dispatch("GET", path).status == 404


class TestAdminSlo:
    def test_report_carries_the_configured_objectives(self, service):
        post_query(service)
        doc = payload(service.dispatch("GET", "/v1/admin/slo"))
        names = {row["name"] for row in doc["objectives"]}
        assert names == {"availability", "latency"}
        assert doc["burn_threshold"] == 1.0
        availability = next(
            row for row in doc["objectives"] if row["name"] == "availability"
        )
        assert availability["burn_fast"] == 0.0
        assert not availability["breach"]

    def test_kill_burns_the_availability_budget(self, service):
        response = post_query(
            service,
            pattern="GetRefer -> (CheckIn | CheckOut)",
            options={"deadline_ms": 0.001, "cache": False},
        )
        assert response.status == 408
        doc = payload(service.dispatch("GET", "/v1/admin/slo"))
        availability = next(
            row for row in doc["objectives"] if row["name"] == "availability"
        )
        assert availability["burn_fast"] > 1.0
        assert "availability" in doc["breaching"]

    def test_policy_follows_service_config(self, make_service):
        service = make_service(
            ServiceConfig(slo_availability_target=0.99, slo_burn_threshold=2.0)
        )
        post_query(service)
        doc = payload(service.dispatch("GET", "/v1/admin/slo"))
        assert doc["burn_threshold"] == 2.0
        availability = next(
            row for row in doc["objectives"] if row["name"] == "availability"
        )
        assert availability["target"] == 0.99


class TestAdminInflight:
    def test_empty_registry(self, service):
        doc = payload(service.dispatch("GET", "/v1/admin/inflight"))
        assert doc == {"count": 0, "queries": [], "cancelled_total": 0}

    def test_delete_unknown_query_is_404_with_live_ids(self, service):
        response = service.dispatch("DELETE", "/v1/admin/inflight/q-missing")
        assert response.status == 404
        doc = payload(response)
        assert doc["error"]["details"]["inflight"] == []

    def test_nested_inflight_path_is_not_routable(self, service):
        assert service.dispatch("DELETE", "/v1/admin/inflight/a/b").status == 404
        assert service.dispatch("GET", "/v1/admin/inflight/a").status == 405


class TestAdminCache:
    def test_cache_health_document(self, service):
        post_query(service)
        post_query(service)  # warm repeat -> result-layer hit
        doc = payload(service.dispatch("GET", "/v1/admin/cache"))
        assert doc["result_hits"] >= 1
        assert 0.0 < doc["result_hit_ratio"] <= 1.0
        assert doc["result_bytes"] > 0
        assert set(doc["hottest"]) == {"results"}
        assert len(doc["hottest"]["results"]) >= 1
        assert not [key for key in doc if "memo" in key]
        assert "policy" not in doc

    def test_works_with_telemetry_disabled(self, make_service):
        service = make_service(ServiceConfig(telemetry=False))
        assert service.dispatch("GET", "/v1/admin/cache").status == 200


class TestDashboard:
    def test_serves_self_contained_html(self, service):
        response = service.dispatch("GET", "/dashboard")
        assert response.status == 200
        assert response.content_type == "text/html; charset=utf-8"
        html = response.body().decode("utf-8")
        assert html.startswith("<!DOCTYPE html>")
        # self-contained: no external scripts, styles, or fonts
        assert "http://" not in html and "https://" not in html
        assert 'src="' not in html
        for path in (
            "/v1/admin/stats",
            "/v1/admin/slo",
            "/v1/admin/inflight",
            "/v1/admin/cache",
        ):
            assert path in html


class TestRequestObservation:
    def test_per_route_histograms_reach_the_exposition(self, service):
        post_query(service)
        service.dispatch("GET", "/healthz")
        text = service.dispatch("GET", "/metrics").text
        assert (
            'repro_service_request_seconds_bucket{endpoint="/v1/query",le="+Inf"} 1'
            in text
        )
        assert 'repro_service_response_bytes_count{endpoint="/healthz"} 1' in text
        assert (
            'repro_service_requests{endpoint="/v1/query",status="200"} 1' in text
        )

    def test_path_parameters_do_not_explode_label_cardinality(self, service):
        service.dispatch("GET", "/v1/logs/clinic/stats")
        service.dispatch("DELETE", "/v1/admin/inflight/q-x")
        text = service.dispatch("GET", "/metrics").text
        assert 'endpoint="/v1/logs/{name}/stats"' in text
        assert 'endpoint="/v1/admin/inflight/{query_id}"' in text
        assert "q-x" not in text

    def test_errors_and_sheds_are_observed_too(self, service):
        service.dispatch("GET", "/no/such/route")
        doc = payload(service.dispatch("GET", "/v1/admin/stats"))
        assert doc["requests"] >= 1  # the 404 landed in the aggregator

    def test_access_log_emits_structured_json(self, make_service, caplog):
        service = make_service(ServiceConfig(access_log=True))
        with caplog.at_level(logging.INFO, logger="repro.service.access"):
            post_query(service)
        lines = [json.loads(r.message) for r in caplog.records]
        assert len(lines) == 1
        line = lines[0]
        assert line["method"] == "POST"
        assert line["endpoint"] == "/v1/query"
        assert line["status"] == 200
        assert line["store"] == "clinic"
        assert line["killed"] is False and line["shed"] is False
        assert line["duration_ms"] > 0
        assert line["bytes"] > 0
        assert line["query_id"]

    def test_access_log_off_by_default(self, service, caplog):
        with caplog.at_level(logging.INFO, logger="repro.service.access"):
            post_query(service)
        assert not caplog.records


class TestConfigValidation:
    def test_telemetry_and_slo_bounds(self):
        with pytest.raises(ReproError):
            ServiceConfig(telemetry_bucket_s=0.0)
        with pytest.raises(ReproError):
            ServiceConfig(telemetry_bucket_s=60.0, telemetry_window_s=30.0)
        with pytest.raises(ReproError):
            ServiceConfig(slo_availability_target=1.5)
        with pytest.raises(ReproError):
            ServiceConfig(slo_slow_window_s=7200.0, telemetry_window_s=3600.0)
