"""The bodies the service sends are the bytes the parent commit sent.

``golden/bodies.json`` was recorded at the commit before the handlers
stopped building rows for ``mode: instances``; any change to how a body
is assembled has to reproduce it byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.service import QueryService, StoreCatalog
from repro.workflow import SimulationConfig, WorkflowEngine
from repro.workflow.models import clinic_referral_workflow

GOLDEN = Path(__file__).parent / "golden" / "bodies.json"
PATTERN = "UpdateRefer -> GetReimburse"

#: name in the golden file -> (path, request); replayed in this order on
#: one service, because ``cache_layer`` in a body depends on what ran before.
REQUESTS = {
    "exists": ("/v1/query", {"log": "clinic", "pattern": PATTERN, "mode": "exists"}),
    "count": ("/v1/query", {"log": "clinic", "pattern": PATTERN, "mode": "count"}),
    "instances": (
        "/v1/query",
        {"log": "clinic", "pattern": PATTERN, "mode": "instances"},
    ),
    "incidents": (
        "/v1/query",
        {"log": "clinic", "pattern": PATTERN, "mode": "incidents"},
    ),
    "incidents_limit": (
        "/v1/query",
        {"log": "clinic", "pattern": PATTERN, "mode": "incidents", "limit": 3},
    ),
    "batch": (
        "/v1/batch",
        {"log": "clinic", "patterns": [PATTERN, "GetRefer -> CheckIn"], "limit": 2},
    ),
}


@pytest.fixture(scope="module")
def readme_log():
    """The README's clinic log: 100 instances, seed 42."""
    engine = WorkflowEngine(clinic_referral_workflow())
    return engine.run(SimulationConfig(instances=100, seed=42))


def test_bodies_are_byte_identical_to_the_parent_commit(readme_log) -> None:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(golden) == sorted(REQUESTS)
    catalog = StoreCatalog()
    catalog.add_log("clinic", readme_log)
    service = QueryService(catalog)
    for name, (path, request) in REQUESTS.items():
        response = service.dispatch("POST", path, json.dumps(request).encode())
        assert response.status == 200
        assert response.body() == golden[name].encode("utf-8"), name
