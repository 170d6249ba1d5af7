"""The simulated clinic-referral log the tests and ``benchmarks/bench_*.py``
build their workloads from, and the records of one activity in a log.

A plain function, not a fixture: ``tests/conftest.py`` has a
``clinic_log`` fixture (40 instances, seed 1234) built with it, and a test
or a benchmark that needs another size or seed calls it directly.  The
simulation is deterministic, so one ``(instances, seed)`` is one log.
"""

from __future__ import annotations

from repro.core.model import Log, LogRecord
from repro.workflow.engine import SimulationConfig, WorkflowEngine
from repro.workflow.models import clinic_referral_workflow


def clinic_log(instances: int, seed: int) -> Log:
    """``instances`` simulated clinic-referral runs from ``seed``."""
    engine = WorkflowEngine(clinic_referral_workflow())
    return engine.run(SimulationConfig(instances=instances, seed=seed))


def records_of(log: Log, activity: str) -> list[LogRecord]:
    """The records of ``activity`` in ``log``, in lsn order."""
    return [record for record in log if record.activity == activity]
