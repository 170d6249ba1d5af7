"""``Incident`` objects exist only where a reply prints one.

A ``mode: exists | count | instances`` reply is read off the kernel's
spans, cold or from the cache; ``mode: incidents`` reads rows off the
columns.  None of them constructs an :class:`Incident`.
"""

from __future__ import annotations

import json

import pytest

from repro.core.incident import IncidentSet

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


def test_a_limited_incidents_reply_reads_three_rows(service, incidents_built, monkeypatch):
    sizes = []
    to_rows = IncidentSet.to_rows

    def recording(self, limit=None):
        rows = to_rows(self, limit)
        sizes.append(len(rows))
        return rows

    monkeypatch.setattr(IncidentSet, "to_rows", recording)
    for _ in range(2):  # cold, then the cached entry
        reply = query(service, PATTERN, "incidents", cache=True, limit=3)
        assert len(reply["incidents"]) == 3 and reply["truncated"]
        assert reply["count"] > 3
    assert sizes == [3, 3]
    assert not incidents_built
