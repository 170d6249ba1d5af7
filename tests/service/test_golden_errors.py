"""The 400 bodies the service sends for malformed requests are pinned.

``golden/errors.json`` maps a case name to the full reply body that
``QueryService.dispatch`` returned for it: status line aside, every
diagnostic, its message and its order.  Any change to how requests are
validated has to reproduce these bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.service import QueryService, StoreCatalog

GOLDEN = Path(__file__).parent / "golden" / "errors.json"

QUERY = {"log": "clinic", "pattern": "GetRefer"}
BATCH = {"log": "clinic", "patterns": ["GetRefer"]}
LINT = {"pattern": "GetRefer"}
EXPLAIN = {"log": "clinic", "pattern": "GetRefer"}
ANALYZE = {"op": "equivalent", "p": "A", "q": "B"}
APPEND = "/v1/logs/clinic/records"


def _without(doc: dict, name: str) -> dict:
    return {key: value for key, value in doc.items() if key != name}


#: case name -> (method, path, body); a dict or list body is sent as JSON,
#: bytes as they stand.
CASES: dict[str, tuple[str, str, object]] = {
    # /v1/query
    "query.missing": ("POST", "/v1/query", _without(QUERY, "pattern")),
    "query.missing_all": ("POST", "/v1/query", {}),
    "query.wrong_type": ("POST", "/v1/query", {**QUERY, "pattern": 5}),
    "query.empty_string": ("POST", "/v1/query", {**QUERY, "log": ""}),
    "query.unknown_field": ("POST", "/v1/query", {**QUERY, "dedline_ms": 5}),
    "query.unknown_option": ("POST", "/v1/query", {**QUERY, "options": {"jobs": 2}}),
    "query.bad_choice": ("POST", "/v1/query", {**QUERY, "mode": "everything"}),
    "query.choice_wrong_type": ("POST", "/v1/query", {**QUERY, "mode": 3}),
    "query.null": ("POST", "/v1/query", {**QUERY, "log": None}),
    "query.null_option": ("POST", "/v1/query", {**QUERY, "options": {"cache": None}}),
    "query.options_not_object": ("POST", "/v1/query", {**QUERY, "options": [1]}),
    "query.bool_limit": ("POST", "/v1/query", {**QUERY, "limit": True}),
    "query.several": (
        "POST",
        "/v1/query",
        {
            "zzz": 1,
            "aaa": 2,
            "log": "",
            "mode": "x",
            "limit": -1,
            "options": {
                "max_pairs": 0,
                "bogus": 1,
                "cache": "x",
                "deadline_ms": -5,
                "engine": "",
                "optimize": 1,
                "max_incidents": 1.5,
            },
        },
    ),
    # /v1/batch
    "batch.missing": ("POST", "/v1/batch", _without(BATCH, "patterns")),
    "batch.wrong_type": ("POST", "/v1/batch", {**BATCH, "patterns": "GetRefer"}),
    "batch.unknown_field": ("POST", "/v1/batch", {**BATCH, "mode": "count"}),
    "batch.unknown_option": ("POST", "/v1/batch", {**BATCH, "options": {"backend": "x"}}),
    "batch.bad_choice": ("POST", "/v1/batch", {**BATCH, "analyze": "yes"}),
    "batch.null": ("POST", "/v1/batch", {**BATCH, "patterns": None}),
    "batch.empty_patterns": ("POST", "/v1/batch", {**BATCH, "patterns": []}),
    "batch.non_string_patterns": ("POST", "/v1/batch", {**BATCH, "patterns": [1, "", "A", None]}),
    "batch.several": (
        "POST",
        "/v1/batch",
        {"log": 1, "patterns": [2], "limit": "x", "analyze": None, "options": {"cache": 1}},
    ),
    # /v1/lint
    "lint.missing": ("POST", "/v1/lint", {}),
    "lint.wrong_type": ("POST", "/v1/lint", {**LINT, "log": 5}),
    "lint.unknown_field": ("POST", "/v1/lint", {**LINT, "model": "clinic"}),
    "lint.unknown_option": ("POST", "/v1/lint", {**LINT, "options": {"cache": False}}),
    "lint.null": ("POST", "/v1/lint", {"pattern": None}),
    "lint.empty_string": ("POST", "/v1/lint", {"pattern": ""}),
    # /v1/explain
    "explain.missing": ("POST", "/v1/explain", _without(EXPLAIN, "log")),
    "explain.wrong_type": ("POST", "/v1/explain", {**EXPLAIN, "pattern": ["A"]}),
    "explain.unknown_field": ("POST", "/v1/explain", {**EXPLAIN, "mode": "count"}),
    "explain.unknown_option": ("POST", "/v1/explain", {**EXPLAIN, "options": {"jobs": 1}}),
    "explain.bad_option": ("POST", "/v1/explain", {**EXPLAIN, "options": {"max_pairs": "many"}}),
    "explain.null": ("POST", "/v1/explain", {**EXPLAIN, "pattern": None}),
    # /v1/analyze
    "analyze.missing": ("POST", "/v1/analyze", _without(ANALYZE, "q")),
    "analyze.wrong_type": ("POST", "/v1/analyze", {**ANALYZE, "max_states": "lots"}),
    "analyze.unknown_field": ("POST", "/v1/analyze", {**ANALYZE, "r": "C"}),
    "analyze.unknown_option": ("POST", "/v1/analyze", {**ANALYZE, "options": {"engine": "naive"}}),
    "analyze.bad_choice": ("POST", "/v1/analyze", {**ANALYZE, "op": "subsumes"}),
    "analyze.choice_empty": ("POST", "/v1/analyze", {**ANALYZE, "op": ""}),
    "analyze.null": ("POST", "/v1/analyze", {**ANALYZE, "p": None}),
    "analyze.zero_states": ("POST", "/v1/analyze", {**ANALYZE, "max_states": 0}),
    # /v1/logs/{name}/records
    "append.missing": ("POST", APPEND, {}),
    "append.wrong_type": ("POST", APPEND, {"records": {"activity": "START"}}),
    "append.unknown_field": ("POST", APPEND, {"records": [{"activity": "START"}], "atomic": True}),
    "append.null": ("POST", APPEND, {"records": None}),
    "append.empty": ("POST", APPEND, {"records": []}),
    "append.item_not_object": ("POST", APPEND, {"records": [5, "START", None]}),
    "append.item_missing_activity": ("POST", APPEND, {"records": [{}]}),
    "append.item_several": (
        "POST",
        APPEND,
        {"records": [{"zzz": 1, "activity": 5, "wid": 0, "attrs_in": 3, "bogus": 2}]},
    ),
    "append.item_bad_wid": ("POST", APPEND, {"records": [{"activity": "A", "wid": True, "attrs_in": 1}]}),
    "append.item_bad_attrs_in": ("POST", APPEND, {"records": [{"activity": "A", "wid": 1, "attrs_in": [1]}]}),
    "append.item_bad_attrs_out": ("POST", APPEND, {"records": [{"activity": "A", "wid": 1, "attrs_out": "x"}]}),
    "append.item_bad_attrs_both": (
        "POST",
        APPEND,
        {"records": [{"activity": "A", "wid": 1, "attrs_in": 1, "attrs_out": 2}]},
    ),
    "append.item_needs_wid": ("POST", APPEND, {"records": [{"activity": "A", "bogus": 1}]}),
    "append.items_mixed": (
        "POST",
        APPEND,
        {
            "records": [
                {"activity": "A"},
                {"activity": ""},
                [],
                {"activity": "END", "wid": -3},
                {"activity": "START", "attrs_out": []},
                {"activity": "B", "wid": None, "extra": None},
            ]
        },
    ),
    "append.unknown_log": ("POST", "/v1/logs/nope/records", {"records": 1}),
    # bodies that are not objects, or not JSON
    "body.query_list": ("POST", "/v1/query", [1, 2]),
    "body.batch_string": ("POST", "/v1/batch", "GetRefer"),
    "body.lint_number": ("POST", "/v1/lint", 5),
    "body.explain_null": ("POST", "/v1/explain", None),
    "body.analyze_list": ("POST", "/v1/analyze", []),
    "body.append_list": ("POST", APPEND, [{"activity": "START"}]),
    "body.query_empty": ("POST", "/v1/query", b""),
    "body.query_not_json": ("POST", "/v1/query", b"{"),
    "body.query_not_utf8": ("POST", "/v1/query", b"\xff\xfe"),
    # the admin plane's ?window=
    "window.not_a_number": ("GET", "/v1/admin/stats?window=x", None),
    "window.zero": ("GET", "/v1/admin/stats?window=0", None),
    "window.negative": ("GET", "/v1/admin/stats?window=-2", None),
    "window.nan": ("GET", "/v1/admin/stats?window=nan", None),
    "window.over_span": ("GET", "/v1/admin/stats?window=1e9", None),
    "window.repeated": ("GET", "/v1/admin/stats?window=5&window=inf", None),
}


def _replies(log) -> dict[str, str]:
    catalog = StoreCatalog()
    catalog.add_log("clinic", log)
    service = QueryService(catalog)
    replies = {}
    for name, (method, path, body) in CASES.items():
        raw = body if isinstance(body, bytes) or (body is None and method == "GET") else json.dumps(body).encode()
        response = service.dispatch(method, path, raw)
        assert 400 <= response.status < 500, (name, response.status)
        replies[name] = response.body().decode("utf-8")
    return replies


def test_error_bodies_are_byte_identical_to_the_recorded_ones(clinic_log) -> None:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    replies = _replies(clinic_log)
    assert sorted(golden) == sorted(CASES)
    for name in CASES:
        assert replies[name] == golden[name], name

