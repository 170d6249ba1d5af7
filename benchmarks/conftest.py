"""Shared benchmark fixtures and helpers.

The paper has no numeric tables — its quantitative content is the
complexity analysis (Lemma 1, Theorem 1) and the optimization-enabling
laws (Theorems 2-5).  Each ``bench_*.py`` regenerates the corresponding
claim as measured series; EXPERIMENTS.md records the expected vs measured
shapes.  Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.incident import Incident
from repro.core.model import Log
from repro.obs.export import metrics_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.workflow.engine import SimulationConfig, WorkflowEngine
from repro.workflow.models import clinic_referral_workflow


def incident_list(log: Log, activity: str) -> list[Incident]:
    """Atomic incident list for one activity (operator-bench input)."""
    return [Incident([r]) for r in log.with_activity(activity)]


@pytest.fixture(scope="session")
def clinic_log_medium() -> Log:
    """A mid-sized clinic log shared by several benches."""
    engine = WorkflowEngine(clinic_referral_workflow())
    return engine.run(SimulationConfig(instances=150, seed=1))


@pytest.fixture(scope="session")
def bench_metrics() -> MetricsRegistry:
    """Session-wide metrics registry for benchmark bookkeeping.

    Benches record measurements here (counters/gauges/histograms); set
    ``REPRO_BENCH_METRICS=/path/to/out.json`` to dump the registry as a
    ``repro.obs.metrics/v1`` document after the run.
    """
    registry = MetricsRegistry()
    yield registry
    out = os.environ.get("REPRO_BENCH_METRICS")
    if out and len(registry):
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(metrics_to_dict(registry), fh, indent=2, ensure_ascii=False)
            fh.write("\n")
