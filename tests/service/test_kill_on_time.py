"""The SQL baseline honours a deadline, and the daemon no longer offers it.

The log is one instance of 45 ``A`` records; ``A & A & A & A`` has
C(45, 4) = 148 995 incidents there, which SQLite enumerates as 45⁴ joined
rows.  ``Query`` attaches its governor to any engine instance it is
given, so the deadline must stop the statement itself, not the loop
around it.  On the wire, ``engine: "sqlite"`` is an unknown engine.
"""

import json
import time

import pytest

from repro.baselines.sql import SqlBaseline
from repro.core import EngineOptions, Query
from repro.core.errors import QueryTimeout
from repro.core.model import Log
from repro.service import QueryService, ServiceConfig, StoreCatalog

HOT = Log.from_traces([["A"] * 45])


def test_the_sql_baseline_is_killed_on_time():
    options = EngineOptions(engine=SqlBaseline(), cache=False, deadline_ms=200)
    started = time.perf_counter()
    with pytest.raises(QueryTimeout) as info:
        Query("A & A & A & A", options).count(HOT)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    assert elapsed_ms < 200 + 100, elapsed_ms
    assert info.value.partial_stats is not None


@pytest.mark.parametrize("route", ["/v1/query", "/v1/explain", "/v1/batch"])
def test_the_daemon_answers_engine_sqlite_as_unknown(route):
    catalog = StoreCatalog()
    catalog.add_log("hot", HOT)
    service = QueryService(catalog, ServiceConfig())
    body = {
        "log": "hot",
        "options": {"engine": "sqlite", "cache": False, "deadline_ms": 200},
    }
    if route == "/v1/batch":
        body["patterns"] = ["A & A & A & A"]
    else:
        body["pattern"] = "A & A & A & A"
    response = service.dispatch("POST", route, json.dumps(body).encode())
    assert response.status == 400, response.body()
    error = json.loads(response.body())["error"]
    assert error["code"] == "bad_request"
    assert error["message"] == "unknown engine 'sqlite'"
    assert error["details"]["available"] == ["naive", "vectorized"]
