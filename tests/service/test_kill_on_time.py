"""``engine: sqlite`` honours the request's deadline.

The store is one instance of 45 ``A`` records; ``A & A & A & A`` has
C(45, 4) = 148 995 incidents there, which SQLite enumerates as 45⁴ joined
rows.  The deadline must stop the statement itself, not the loop around
it, and answer the same typed 408 the kernel answers.
"""

import json
import time

from repro.core.model import Log
from repro.service import QueryService, ServiceConfig, StoreCatalog


def test_sqlite_answers_the_deadline_kill_on_time():
    catalog = StoreCatalog()
    catalog.add_log("hot", Log.from_traces([["A"] * 45]))
    service = QueryService(catalog, ServiceConfig())
    body = {
        "log": "hot",
        "pattern": "A & A & A & A",
        "mode": "count",
        "options": {"engine": "sqlite", "cache": False, "deadline_ms": 200},
    }
    started = time.perf_counter()
    response = service.dispatch("POST", "/v1/query", json.dumps(body).encode())
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    assert response.status == 408, response.body()
    error = json.loads(response.body())["error"]
    assert error["code"] == "deadline_exceeded"
    assert "pairs_examined" in error["partial_stats"]
    assert elapsed_ms < 300, elapsed_ms
