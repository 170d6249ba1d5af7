"""QueryService.dispatch: routing, error contract, clamping, journaling,
and the catalog/cache interplay — all in-process, no sockets."""

from __future__ import annotations

import json

import pytest

from repro.core.options import EngineOptions
from repro.core.query import Query
from repro.obs.journal import validate_journal
from repro.service import QueryService, ServiceConfig


def post(service: QueryService, path: str, body: dict):
    return service.dispatch("POST", path, json.dumps(body).encode())


def payload(response) -> dict:
    return json.loads(response.body())


def metric_value(prometheus_text: str, sample: str) -> float:
    for line in prometheus_text.splitlines():
        if line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if name == sample:
            return float(value)
    raise AssertionError(f"sample {sample!r} not in exposition")


class TestPlumbing:
    def test_healthz(self, service):
        response = service.dispatch("GET", "/healthz")
        assert response.status == 200
        doc = payload(response)
        assert doc["status"] == "ok"
        assert doc["stores"] == 1
        assert doc["admission"]["in_flight"] == 0

    def test_version(self, service):
        doc = payload(service.dispatch("GET", "/version"))
        assert doc["service"] == "repro.service"

    def test_logs_listing(self, service):
        doc = payload(service.dispatch("GET", "/v1/logs"))
        assert [entry["name"] for entry in doc["logs"]] == ["clinic"]
        assert doc["logs"][0]["lineage"].startswith("logstore:")

    def test_log_stats(self, service):
        doc = payload(service.dispatch("GET", "/v1/logs/clinic/stats"))
        assert doc["instance_count"] == 40
        assert doc["total_records"] > 0
        assert "GetRefer" in doc["activity_counts"]

    def test_metrics_exposition(self, service):
        post(service, "/v1/query", {"log": "clinic", "pattern": "GetRefer"})
        response = service.dispatch("GET", "/metrics")
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        text = response.body().decode()
        assert "# TYPE repro_service_admitted counter" in text
        assert metric_value(text, "repro_service_admitted") == 1.0

    def test_query_and_trace_headers_on_every_response(self, service):
        for response in (
            service.dispatch("GET", "/healthz"),
            post(service, "/v1/query", {"log": "clinic", "pattern": "GetRefer"}),
            post(service, "/v1/query", {"bad": True}),
        ):
            assert response.headers["X-Query-Id"].startswith("q-")
            assert response.headers["X-Trace-Id"].startswith("t-")


class TestErrorContract:
    def test_400_schema_violation(self, service):
        response = post(service, "/v1/query", {"log": "clinic"})
        assert response.status == 400
        error = payload(response)["error"]
        assert error["code"] == "bad_request"
        assert error["details"]["diagnostics"][0]["code"] == "SVC400"

    def test_400_pattern_syntax(self, service):
        response = post(
            service, "/v1/query", {"log": "clinic", "pattern": "A ->"}
        )
        assert response.status == 400
        diagnostics = payload(response)["error"]["details"]["diagnostics"]
        assert diagnostics[0]["span"] is not None

    def test_404_unknown_log(self, service):
        response = post(service, "/v1/query", {"log": "nope", "pattern": "A"})
        assert response.status == 404
        assert payload(response)["error"]["details"]["available"] == ["clinic"]

    def test_404_unknown_route(self, service):
        assert service.dispatch("GET", "/v2/query").status == 404

    def test_405_wrong_method(self, service):
        response = service.dispatch("GET", "/v1/query")
        assert response.status == 405
        assert payload(response)["error"]["details"]["allowed"] == ["POST"]

    def test_408_deadline_kill_with_partial_stats(self, service):
        response = post(
            service,
            "/v1/query",
            {
                "log": "clinic",
                "pattern": "GetRefer -> CheckIn -> Treatment",
                "options": {"deadline_ms": 0.001, "cache": False},
            },
        )
        assert response.status == 408
        error = payload(response)["error"]
        assert error["code"] == "deadline_exceeded"
        assert error["details"]["deadline_ms"] == 0.001
        assert "pairs_examined" in error["partial_stats"]

    def test_422_pairs_budget_kill(self, service):
        response = post(
            service,
            "/v1/query",
            {
                "log": "clinic",
                "pattern": "GetRefer -> CheckIn",
                "options": {"max_pairs": 1, "cache": False},
            },
        )
        assert response.status == 422
        error = payload(response)["error"]
        assert error["code"] == "budget_exceeded"
        assert error["details"]["max_pairs"] == 1
        assert error["partial_stats"]["pairs_examined"] >= 1

    def test_429_when_saturated(self, make_service):
        service = make_service(
            ServiceConfig(max_concurrency=1, queue_depth=0, retry_after_s=3.0)
        )
        with service.admission.slot():
            response = post(
                service, "/v1/query", {"log": "clinic", "pattern": "GetRefer"}
            )
        assert response.status == 429
        assert payload(response)["error"]["code"] == "saturated"
        assert response.headers["Retry-After"] == "3"

    def test_503_while_draining(self, service):
        service.drain()
        response = post(
            service, "/v1/query", {"log": "clinic", "pattern": "GetRefer"}
        )
        assert response.status == 503
        assert payload(response)["error"]["code"] == "unavailable"
        assert payload(service.dispatch("GET", "/healthz"))["status"] == "draining"

    def test_kills_do_not_kill_the_server(self, service):
        post(
            service,
            "/v1/query",
            {"log": "clinic", "pattern": "GetRefer -> CheckIn",
             "options": {"deadline_ms": 0.001, "cache": False}},
        )
        ok = post(service, "/v1/query", {"log": "clinic", "pattern": "GetRefer"})
        assert ok.status == 200
        assert service.admission.in_flight == 0


class TestClamping:
    def test_over_ceiling_budgets_are_clamped_and_reported(self, make_service):
        service = make_service(
            ServiceConfig(deadline_ms_ceiling=50.0, max_pairs_ceiling=1000,
                          max_incidents_ceiling=500)
        )
        response = post(
            service,
            "/v1/query",
            {
                "log": "clinic",
                "pattern": "GetRefer",
                "options": {"deadline_ms": 99999, "max_pairs": 10**9,
                            "max_incidents": 10**7},
            },
        )
        assert response.status == 200
        assert sorted(payload(response)["clamped"]) == [
            "deadline_ms", "max_incidents", "max_pairs",
        ]

    @pytest.mark.parametrize("route", ["/v1/query", "/v1/batch"])
    @pytest.mark.parametrize(
        "removed", [{"jobs": 2}, {"backend": "process"}], ids=["jobs", "backend"]
    )
    def test_removed_parallel_options_are_400(self, service, route, removed):
        body = {"log": "clinic", "options": removed}
        if route == "/v1/query":
            body["pattern"] = "GetRefer"
        else:
            body["patterns"] = ["GetRefer"]
        response = post(service, route, body)
        assert response.status == 400
        (diagnostic,) = payload(response)["error"]["details"]["diagnostics"]
        (name,) = removed
        assert diagnostic["message"] == (
            f"'options.{name}': unknown option (allowed: cache, deadline_ms, "
            "engine, max_incidents, max_pairs, optimize)"
        )

    @staticmethod
    def assert_unknown_engine(service, name):
        response = post(
            service,
            "/v1/query",
            {"log": "clinic", "pattern": "A", "options": {"engine": name}},
        )
        assert response.status == 400
        assert payload(response)["error"]["details"]["available"] == [
            "naive", "vectorized",
        ]

    def test_unknown_engine_is_400(self, service):
        self.assert_unknown_engine(service, "warp")

    def test_the_deleted_indexed_engine_is_unknown(self, service):
        # the one deliberate narrowing of the wire contract: no alias is kept
        self.assert_unknown_engine(service, "indexed")

    @pytest.mark.parametrize("engine", ["naive"])
    def test_a_batch_refuses_an_engine_it_cannot_run(self, service, engine):
        # a batch is one shared scan on the kernel: another engine is a
        # 400 naming the one allowed, never a kernel answer under its name
        response = post(
            service,
            "/v1/batch",
            {"log": "clinic", "patterns": ["GetRefer"], "options": {"engine": engine}},
        )
        assert response.status == 400
        error = payload(response)["error"]
        assert error["code"] == "bad_request"
        assert error["details"]["available"] == ["vectorized"]
        assert repr(engine) in error["message"]

    def test_a_batch_accepts_the_kernel_by_name(self, service):
        response = post(
            service,
            "/v1/batch",
            {"log": "clinic", "patterns": ["GetRefer"],
             "options": {"engine": "vectorized"}},
        )
        assert response.status == 200

    def test_clamp_returns_engine_options_and_the_clamped_names(self):
        config = ServiceConfig(deadline_ms_ceiling=50.0, max_pairs_ceiling=1000)
        options, clamped = config.clamp(
            {"engine": "naive", "optimize": False, "deadline_ms": 20,
             "max_pairs": 10**9, "cache": False}
        )
        assert options == EngineOptions(
            engine="naive",
            optimize=False,
            max_incidents=config.max_incidents_ceiling,
            cache=False,
            deadline_ms=20.0,
            max_pairs=1000,
        )
        assert clamped == ("max_pairs",)
        assert config.clamp({}) == (
            EngineOptions(
                max_incidents=config.max_incidents_ceiling,
                cache=True,
                deadline_ms=50.0,
                max_pairs=1000,
            ),
            (),
        )


class TestQueryModes:
    def test_incidents_match_direct_query(self, service, clinic_log):
        pattern = "GetRefer -> CheckIn"
        response = post(service, "/v1/query", {"log": "clinic", "pattern": pattern})
        direct = Query(pattern, EngineOptions()).run(clinic_log).to_rows()
        expected = [{**row, "lsns": list(row["lsns"])} for row in direct]
        assert payload(response)["incidents"] == json.loads(json.dumps(expected))
        assert payload(response)["count"] == len(direct)

    def test_count_exists_instances(self, service, clinic_log):
        pattern = "GetRefer -> CheckIn"
        count = payload(
            post(service, "/v1/query",
                 {"log": "clinic", "pattern": pattern, "mode": "count"})
        )["count"]
        assert count == Query(pattern, EngineOptions()).count(clinic_log)
        assert payload(
            post(service, "/v1/query",
                 {"log": "clinic", "pattern": pattern, "mode": "exists"})
        )["exists"] is True
        wids = payload(
            post(service, "/v1/query",
                 {"log": "clinic", "pattern": pattern, "mode": "instances"})
        )["instances"]
        assert tuple(wids) == Query(pattern, EngineOptions()).matching_instances(
            clinic_log
        )

    def test_limit_truncates_incidents_only(self, service):
        doc = payload(
            post(service, "/v1/query",
                 {"log": "clinic", "pattern": "GetRefer", "limit": 3})
        )
        assert len(doc["incidents"]) == 3
        assert doc["count"] > 3
        assert doc["truncated"] is True

    def test_batch(self, service, clinic_log):
        doc = payload(
            post(service, "/v1/batch",
                 {"log": "clinic", "patterns": ["GetRefer", "GetRefer -> CheckIn"]})
        )
        assert [item["count"] for item in doc["results"]] == [
            Query("GetRefer", EngineOptions()).count(clinic_log),
            Query("GetRefer -> CheckIn", EngineOptions()).count(clinic_log),
        ]
        assert doc["backend"] == "serial"

    def test_a_batch_after_an_append_joins_only_the_new_instance(self, service):
        pair = {"log": "clinic", "patterns": ["GetRefer ; CheckIn", "START -> CheckIn"]}
        before = payload(post(service, "/v1/batch", pair))
        append = post(
            service, "/v1/logs/clinic/records",
            {"records": [
                {"activity": "START", "wid": 7100},
                {"activity": "GetRefer", "wid": 7100},
                {"activity": "CheckIn", "wid": 7100},
            ]},
        )
        assert append.status == 200
        after = payload(post(service, "/v1/batch", pair))
        # each pattern is one binary node, joined on the one new instance
        assert after["stats"]["operator_evals"] == 2 < before["stats"]["operator_evals"]
        assert after["count"] == before["count"] + 2
        for item in after["results"]:
            query = {"log": "clinic", "pattern": item["pattern"], "mode": "count"}
            assert payload(post(service, "/v1/query", query))["count"] == item["count"]

    def test_a_delta_root_reads_its_windows_of_a_node_a_whole_root_shares(self, service):
        payload(post(service, "/v1/batch", {"log": "clinic", "patterns": ["GetRefer ; CheckIn"]}))
        append = post(
            service, "/v1/logs/clinic/records",
            {"records": [
                {"activity": "START", "wid": 7200},
                {"activity": "GetRefer", "wid": 7200},
                {"activity": "CheckIn", "wid": 7200},
            ]},
        )
        assert append.status == 200
        # the cached pattern is a delta root over the new instance; the new
        # one runs whole and holds it, so the shared node runs once, whole
        mixed = ["GetRefer ; CheckIn", "(GetRefer ; CheckIn) -> SeeDoctor"]
        after = payload(post(service, "/v1/batch", {"log": "clinic", "patterns": mixed}))
        for item in after["results"]:
            query = {"log": "clinic", "pattern": item["pattern"], "mode": "count",
                     "options": {"cache": False}}
            assert payload(post(service, "/v1/query", query))["count"] == item["count"]

    def test_every_engine_answers_a_store_holding_a_lone_surrogate_name(self, service):
        # JSON carries "\ud800" over the wire; every engine the wire names
        # answers it (the SQL baseline's own test is in tests/baselines)
        append = post(
            service, "/v1/logs/clinic/records",
            {"records": [
                {"activity": "START", "wid": 7000},
                {"activity": "A\ud800", "wid": 7000},
                {"activity": "GetRefer", "wid": 7000},
            ]},
        )
        assert append.status == 200
        body = {"log": "clinic", "pattern": "GetRefer -> CheckIn", "options": {"cache": False}}
        kernel = payload(post(service, "/v1/query", body))
        assert kernel["count"] > 0
        for options in ({"engine": "naive", "cache": False}, {"engine": "naive"}):
            for mode in ("incidents", "exists"):
                response = post(service, "/v1/query", {**body, "mode": mode, "options": options})
                assert response.status == 200, (options, payload(response))
                if mode == "incidents":
                    assert payload(response)["incidents"] == kernel["incidents"], options
                else:
                    assert payload(response)["exists"] is True

    def test_lint(self, service):
        doc = payload(
            post(service, "/v1/lint", {"log": "clinic", "pattern": "NoSuchActivity"})
        )
        assert doc["ok"] is True or doc["ok"] is False
        assert isinstance(doc["diagnostics"], list)

    def test_explain(self, service):
        doc = payload(
            post(service, "/v1/explain", {"log": "clinic", "pattern": "GetRefer -> CheckIn"})
        )
        assert "optimized" in doc
        assert "estimated cost" in doc["explain"]

    def test_analyze(self, service):
        doc = payload(
            post(service, "/v1/analyze", {"op": "equivalent", "p": "A | B", "q": "B | A"})
        )
        assert doc["result"] is True
        doc = payload(
            post(service, "/v1/analyze", {"op": "contains", "p": "A", "q": "B"})
        )
        assert doc["result"] is False
        assert doc["witness"]


class TestCacheOverHttp:
    def test_cold_warm_invalidated_via_metrics(self, service):
        body = {"log": "clinic", "pattern": "GetRefer -> CheckIn"}

        first = payload(post(service, "/v1/query", body))
        assert first["cache_layer"] is None
        text = service.dispatch("GET", "/metrics").body().decode()
        assert metric_value(text, "repro_cache_result_misses") == 1.0
        assert metric_value(text, "repro_cache_result_hits") == 0.0

        second = payload(post(service, "/v1/query", body))
        assert second["cache_layer"] == "result"
        text = service.dispatch("GET", "/metrics").body().decode()
        assert metric_value(text, "repro_cache_result_hits") == 1.0

        append = post(
            service,
            "/v1/logs/clinic/records",
            {"records": [
                {"activity": "START"},
                {"activity": "GetRefer", "wid": 41},
            ]},
        )
        assert append.status == 200
        assert append.headers["X-Query-Id"].startswith("q-")

        third = payload(post(service, "/v1/query", body))
        # epoch moved: the held result does not serve, the run starts from
        # it and joins only the instance appended to
        assert third["cache_layer"] == "delta"
        assert third["count"] == first["count"]
        assert third["stats"]["operator_evals"] == 1 < first["stats"]["operator_evals"]
        assert third["epoch"] == first["epoch"] + 2
        text = service.dispatch("GET", "/metrics").body().decode()
        assert metric_value(text, "repro_cache_result_misses") == 2.0
        assert metric_value(text, "repro_cache_result_hits") == 1.0
        # the superseded epoch's entry is gone, and there is one cache layer
        assert metric_value(text, "repro_cache_result_entries") == 1.0
        assert "repro_cache_memo" not in text

    def test_requests_share_one_snapshot_per_epoch(self, service):
        body = {"log": "clinic", "pattern": "GetRefer", "mode": "count"}

        def counters() -> tuple[float, float]:
            text = service.dispatch("GET", "/metrics").body().decode()
            return (
                metric_value(text, "repro_logstore_snapshots"),
                metric_value(text, "repro_logstore_snapshot_builds"),
            )

        for _ in range(3):
            assert post(service, "/v1/query", body).status == 200
        assert post(service, "/v1/lint", {"log": "clinic", "pattern": "GetRefer"}).status == 200
        assert counters() == (4.0, 1.0)

        before = service.catalog.snapshot("clinic")
        append = post(
            service, "/v1/logs/clinic/records", {"records": [{"activity": "START"}]}
        )
        assert append.status == 200
        after = service.catalog.snapshot("clinic")
        assert after is not before and after is service.catalog.snapshot("clinic")
        assert after.epoch == payload(append)["epoch"] == before.epoch + 1
        assert payload(post(service, "/v1/query", body))["epoch"] == after.epoch
        assert counters() == (8.0, 2.0)

    def test_append_404_before_mutation(self, service):
        response = post(
            service, "/v1/logs/nope/records",
            {"records": [{"activity": "START"}]},
        )
        assert response.status == 404

    def test_append_to_closed_instance_is_422(self, service):
        response = post(
            service, "/v1/logs/clinic/records",
            {"records": [{"activity": "GetRefer", "wid": 1}]},
        )
        assert response.status == 422
        assert payload(response)["error"]["code"] == "unprocessable"

    def test_a_422_batch_leaves_the_store_as_it_was(self, service):
        listing = service.dispatch("GET", "/v1/logs").body()
        response = post(
            service, "/v1/logs/clinic/records",
            {"records": [
                {"activity": "START", "wid": 7000},
                {"activity": "GetRefer", "wid": 7000},
                {"activity": "GetRefer", "wid": 9999},  # never opened
            ]},
        )
        assert response.status == 422
        assert "unknown instance 9999" in payload(response)["error"]["message"]
        # no record of the batch stayed behind the error: same epoch, same
        # record count, instance 7000 not left open
        assert service.dispatch("GET", "/v1/logs").body() == listing


class TestJournal:
    def test_lifecycle_valid_after_mixed_traffic(self, make_service):
        service = make_service(journal=True)
        ok = post(service, "/v1/query", {"log": "clinic", "pattern": "GetRefer"})
        killed = post(
            service,
            "/v1/query",
            {"log": "clinic", "pattern": "GetRefer -> CheckIn",
             "options": {"deadline_ms": 0.001, "cache": False}},
        )
        post(service, "/v1/batch", {"log": "clinic", "patterns": ["GetRefer"]})
        assert ok.status == 200 and killed.status == 408

        events = service.journal.events
        validate_journal(events)
        kinds = [event["event"] for event in events]
        assert kinds.count("submit") == 3
        assert kinds.count("finish") == 2
        assert kinds.count("killed") == 1

        finish = next(e for e in events if e["event"] == "finish")
        submit = next(
            e for e in events if e["query_id"] == finish["query_id"]
            and e["event"] == "submit"
        )
        assert submit["op"] == "http.query"

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/v1/query", {"log": "clinic", "pattern": "GetRefer -> CheckIn",
                           "options": {"cache": False}}),
            ("/v1/batch", {"log": "clinic", "patterns": ["GetRefer", "CheckIn"],
                           "options": {"cache": False}}),
        ],
        ids=["query", "batch"],
    )
    def test_one_request_mints_one_query_id_and_one_trace_id(
        self, make_service, monkeypatch, path, body
    ):
        import repro.core.governor as governor
        import repro.service.handlers as handlers

        minted = {"query_id": [], "trace_id": []}
        for name, kind in (("new_query_id", "query_id"), ("new_trace_id", "trace_id")):
            real = getattr(governor, name)

            def counted(real=real, kind=kind):
                minted[kind].append(real())
                return minted[kind][-1]

            monkeypatch.setattr(governor, name, counted)
            monkeypatch.setattr(handlers, name, counted)
        service = make_service(journal=True)
        response = post(service, path, body)
        assert response.status == 200
        assert minted == {
            "query_id": [response.headers["X-Query-Id"]],
            "trace_id": [response.headers["X-Trace-Id"]],
        }
        # the one lifecycle is journaled under the ids the client got
        assert {(e["query_id"], e["trace_id"]) for e in service.journal.events} == {
            (response.headers["X-Query-Id"], response.headers["X-Trace-Id"])
        }

    def test_response_ids_match_journal(self, make_service):
        service = make_service(journal=True)
        response = post(
            service, "/v1/query", {"log": "clinic", "pattern": "GetRefer"}
        )
        query_ids = {event["query_id"] for event in service.journal.events}
        assert response.headers["X-Query-Id"] in query_ids

    def test_close_flushes_and_drains(self, make_service, tmp_path):
        from repro.obs.journal import QueryJournal, read_journal

        service = make_service(journal=True)
        sink = tmp_path / "journal.jsonl"
        service.journal = QueryJournal(sink)
        post(service, "/v1/query", {"log": "clinic", "pattern": "GetRefer"})
        service.close()
        assert service.draining
        events = read_journal(sink)
        validate_journal(events)
        assert [event["event"] for event in events] == ["submit", "finish"]
