"""Shared fixtures.

``figure3_log`` is a verbatim transcription of the paper's Figure 3 (the
first 20 records of the medical-clinic referral log) — the ground truth
for every "example from the paper" test.  The paper's figure spells the
reimbursement activity ``GetReimberse``; the running text uses
``GetReimburse``.  We normalise to the text spelling throughout.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.model import Log
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.workflow.engine import SimulationConfig, WorkflowEngine
from repro.workflow.models import loan_approval_workflow, order_fulfillment_workflow
from tests.support import workloads

#: (lsn, wid, is_lsn, activity, attrs_in, attrs_out) — Figure 3 verbatim.
FIGURE3_ROWS = [
    (1, 1, 1, "START"),
    (2, 2, 1, "START"),
    (3, 1, 2, "GetRefer", {}, {
        "hospital": "Public Hospital", "referId": "034d1",
        "referState": "start", "balance": 1000}),
    (4, 1, 3, "CheckIn",
     {"referId": "034d1", "referState": "start", "balance": 1000},
     {"referState": "active"}),
    (5, 2, 2, "GetRefer", {}, {
        "hospital": "People Hospital", "referId": "022f3",
        "referState": "start", "balance": 2000}),
    (6, 3, 1, "START"),
    (7, 3, 2, "GetRefer", {}, {
        "hospital": "Public Hospital", "referId": "048s1",
        "referState": "start", "balance": 500}),
    (8, 2, 3, "CheckIn",
     {"referId": "022f3", "referState": "start", "balance": 2000},
     {"referState": "active"}),
    (9, 1, 4, "SeeDoctor", {"referId": "034d1", "referState": "active"}, {}),
    (10, 1, 5, "PayTreatment",
     {"referId": "034d1", "referState": "active"},
     {"receipt1": 560, "receipt1State": "active"}),
    (11, 1, 6, "SeeDoctor", {"referId": "034d1", "referState": "active"}, {}),
    (12, 1, 7, "PayTreatment",
     {"referId": "034d1", "referState": "active"},
     {"receipt2": 460, "receipt2State": "active"}),
    (13, 2, 4, "SeeDoctor", {"referId": "022f3", "referState": "active"}, {}),
    (14, 2, 5, "UpdateRefer",
     {"referId": "022f3", "referState": "active", "balance": 2000},
     {"balance": 5000}),
    (15, 1, 8, "GetReimburse",
     {"referState": "active", "balance": 1000, "receipt1": 560,
      "receipt1State": "active", "receipt2": 460, "receipt2State": "active"},
     {"amount": 1020, "balance": 0, "reimburse": 1000,
      "receipt1State": "complete", "receipt2State": "complete"}),
    (16, 1, 9, "CompleteRefer",
     {"referState": "active", "balance": 0}, {"referState": "complete"}),
    (17, 2, 6, "SeeDoctor", {"referId": "022f3", "referState": "active"}, {}),
    (18, 2, 7, "PayTreatment",
     {"referId": "022f3", "referState": "active"},
     {"receipt1": 4560, "receipt1State": "active"}),
    (19, 2, 8, "TakeTreatment", {"referId": "022f3", "receipt1": 4560}, {}),
    (20, 2, 9, "GetReimburse",
     {"referState": "active", "balance": 5000, "receipt1": 6560,
      "receipt1State": "active"},
     {"amount": 6560, "balance": 0, "reimburse": 5000,
      "receipt1State": "complete"}),
]


@pytest.fixture(scope="session")
def figure3_log() -> Log:
    """The paper's Figure 3 log, verbatim (instances 2 and 3 unfinished)."""
    return Log.from_tuples(FIGURE3_ROWS)


@pytest.fixture(scope="session")
def clinic_log() -> Log:
    """A 40-instance simulated clinic-referral log (deterministic)."""
    return workloads.clinic_log(40, seed=1234)


@pytest.fixture(scope="session")
def order_log() -> Log:
    engine = WorkflowEngine(order_fulfillment_workflow())
    return engine.run(SimulationConfig(instances=40, seed=99))


@pytest.fixture(scope="session")
def loan_log() -> Log:
    engine = WorkflowEngine(loan_approval_workflow())
    return engine.run(SimulationConfig(instances=40, seed=7))


#: The two in-process engines as ``parametrize`` values (pytest ids a
#: class by its name).
ENGINE_CLASSES = [NaiveEngine, VectorizedEngine]


@pytest.fixture(params=["naive", "vectorized"])
def engine(request):
    """Parametrized over the two in-process engines, by engine name."""
    return {"naive": NaiveEngine, "vectorized": VectorizedEngine}[request.param]()


@pytest.fixture()
def incidents_built(monkeypatch) -> list[int]:
    """One entry per :class:`Incident` constructed from here to the end
    of the test."""
    from repro.core.incident import Incident

    built: list[int] = []
    construct = Incident.__init__

    def counting(self, records):
        built.append(1)
        construct(self, records)

    monkeypatch.setattr(Incident, "__init__", counting)
    return built


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(20240704)


@pytest.fixture()
def spinner():
    """A pure-Python thread competing for the interpreter lock for the
    whole test, as a neighbour request does in the threaded daemon."""
    stop = threading.Event()

    def spin() -> None:
        while not stop.is_set():
            pass

    thread = threading.Thread(target=spin, daemon=True)
    thread.start()
    yield
    stop.set()
    thread.join(timeout=5)
    assert not thread.is_alive()
