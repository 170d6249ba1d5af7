"""``Incident`` objects exist only where a reply prints one.

A ``mode: exists | count | instances`` reply is read off the kernel's
spans, cold or from the cache; ``mode: incidents`` and ``/v1/batch``
write their rows as JSON text straight off the spans and the columns.
None of them constructs an :class:`Incident` or a row.
"""

from __future__ import annotations

import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.incident import IncidentSet
from repro.core.options import EngineOptions
from repro.core.query import Query
from repro.service.handlers import EncodedJson, ServiceResponse

PATTERN = "GetRefer -> CheckIn -> SeeDoctor"
#: has a choice, so ``count`` cannot take the counting DP and evaluates
CHOICE_PATTERN = "(UpdateRefer | TerminateRefer) -> CompleteRefer"


def query(service, pattern, mode, *, cache, **extra):
    body = {"log": "clinic", "pattern": pattern, "mode": mode, **extra}
    if not cache:
        body["options"] = {"cache": False}
    response = service.dispatch("POST", "/v1/query", json.dumps(body).encode())
    assert response.status == 200
    return json.loads(response.body())


@pytest.mark.parametrize("cache", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("mode", ["exists", "count", "instances"])
@pytest.mark.parametrize("pattern", [PATTERN, CHOICE_PATTERN])
def test_no_incident_is_built_for_a_reply_that_prints_none(
    service, incidents_built, pattern, mode, cache
):
    cold = query(service, pattern, mode, cache=cache)
    again = query(service, pattern, mode, cache=cache)
    assert not incidents_built
    assert cold["count"] == again["count"] > 0
    if mode == "instances":
        assert cold["instances"] == again["instances"] != []
        # the cold run stored its result, the second one was served from it
        assert again["cache_layer"] == ("result" if cache else None)


@pytest.fixture()
def no_rows(monkeypatch):
    """``IncidentSet.to_rows`` raises: the request path has no caller."""

    def to_rows(self, limit=None):
        raise AssertionError("a reply built rows")

    monkeypatch.setattr(IncidentSet, "to_rows", to_rows)


def test_a_limited_incidents_reply_reads_three_rows(service, incidents_built, monkeypatch):
    sizes = []
    rows_json = IncidentSet.rows_json

    def recording(self, limit=None):
        text, shown = rows_json(self, limit)
        assert len(json.loads(text)) == shown
        sizes.append(shown)
        return text, shown

    monkeypatch.setattr(IncidentSet, "rows_json", recording)
    expected = Query(PATTERN, EngineOptions()).run(service.catalog.snapshot("clinic"))
    expected = json.loads(json.dumps(expected.to_rows(3)))
    for layer in (None, "result"):  # cold, then the cached entry
        reply = query(service, PATTERN, "incidents", cache=True, limit=3)
        assert reply["incidents"] == expected and reply["truncated"]
        assert reply["count"] > 3
        assert reply["cache_layer"] == layer
    assert sizes == [3, 3]
    assert not incidents_built


@pytest.mark.parametrize("limit", [None, 0, 2])
def test_no_reply_builds_a_row_or_an_incident(service, incidents_built, no_rows, limit):
    extra = {} if limit is None else {"limit": limit}
    for _ in range(2):  # cold, then the cached entry
        reply = query(service, PATTERN, "incidents", cache=True, **extra)
        assert len(reply["incidents"]) == (reply["count"] if limit is None else limit)
        assert reply["truncated"] == (limit is not None)
    body = {"log": "clinic", "patterns": [PATTERN, CHOICE_PATTERN], **extra}
    response = service.dispatch("POST", "/v1/batch", json.dumps(body).encode())
    assert response.status == 200
    results = json.loads(response.body())["results"]
    assert [item["pattern"] for item in results] == [PATTERN, CHOICE_PATTERN]
    for item in results:
        assert len(item["incidents"]) == (item["count"] if limit is None else limit)
    assert not incidents_built


_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_VALUES = st.recursive(
    _LEAVES | st.tuples(st.integers(), st.integers()) | st.just({1, 2}),  # default=str
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def with_encoded_parts(value, draw):
    """``value`` with some of its parts swapped for their own JSON text."""
    if draw(st.booleans()):
        return EncodedJson(json.dumps(value, sort_keys=True, default=str))
    if isinstance(value, dict):
        return {key: with_encoded_parts(item, draw) for key, item in value.items()}
    if isinstance(value, list):
        return [with_encoded_parts(item, draw) for item in value]
    return value


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.text(max_size=6), _VALUES, max_size=5), st.data())
def test_a_body_with_encoded_parts_is_the_body_without(payload, data):
    plain = (json.dumps(payload, sort_keys=True, default=str) + "\n").encode("utf-8")
    assert ServiceResponse(200, payload=payload).body() == plain
    spliced = {key: with_encoded_parts(item, data.draw) for key, item in payload.items()}
    assert ServiceResponse(200, payload=spliced).body() == plain


#: what a splice by search-and-replace could trip over: the reply's own
#: key, JSON structure, format directives, NULs and a lone surrogate
HOSTILE = [
    '"incidents": [',
    '], "log": "x", "incidents": [{"wid": 0}',
    "{incidents} %(incidents)s %s {0}",
    "\x00incidents\x00",
    "\\u0000 \\\" \ud800 \U0001f9ea é",
]


@pytest.mark.parametrize("text", HOSTILE)
def test_request_text_cannot_collide_with_the_spliced_rows(make_service, clinic_log, text):
    """``log`` and ``pattern`` are echoed in the same document the rows
    are spliced into: whatever they say, the reply is well formed, echoes
    them exactly and carries the rows of the pattern asked for."""
    service = make_service(extra_logs={text: clinic_log})
    atom = '"' + text.replace('"', "'") + '"'  # a quoted name ends at the next quote
    pattern = f"GetRefer -> (CheckIn | {atom})"
    rows = json.loads(json.dumps(Query("GetRefer -> CheckIn").run(clinic_log).to_rows()))

    def post(path, **body):
        response = service.dispatch("POST", path, json.dumps({"log": text, **body}).encode())
        return response.status, json.loads(response.body())

    status, reply = post("/v1/query", pattern=pattern)
    assert status == 200
    assert (reply["log"], reply["pattern"]) == (text, pattern)
    assert reply["incidents"] == rows and reply["count"] == len(rows) > 0
    status, reply = post("/v1/batch", patterns=[pattern, atom], limit=1)
    assert status == 200
    assert reply["log"] == text
    assert [item["pattern"] for item in reply["results"]] == [pattern, atom]
    assert [item["incidents"] for item in reply["results"]] == [rows[:1], []]
    if '"' in text:  # not a pattern: the ordinary typed refusal, as well formed
        status, reply = post("/v1/query", pattern=f"GetRefer -> {text}")
        assert status == 400 and reply["error"]["code"] == "bad_request"
