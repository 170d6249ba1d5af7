"""Experiment B2 — scaling with log size, and the activity index.

Section 3.2 of the paper claims "an index structure for each workflow id
and activity is used to generate log records for an activity node in
constant time".  Two measurements:

* atomic-query latency vs log size: with the per-activity index the cost
  is proportional to the *output*, not the log (flat for a fixed-rate
  activity); negated atoms force a scan and grow linearly — the contrast
  is the point;
* a fixed three-activity query vs number of workflow instances: near-
  linear, because incidents never span instances.
"""

from __future__ import annotations

import pytest

from repro.core.eval.vectorized import VectorizedEngine
from repro.core.parser import parse
from repro.workflow.engine import SimulationConfig, WorkflowEngine
from repro.workflow.models import clinic_referral_workflow

INSTANCE_COUNTS = (50, 100, 200, 400)


@pytest.fixture(scope="module")
def logs_by_size():
    engine = WorkflowEngine(clinic_referral_workflow())
    return {
        n: engine.run(SimulationConfig(instances=n, seed=3))
        for n in INSTANCE_COUNTS
    }


@pytest.mark.parametrize("instances", INSTANCE_COUNTS)
def test_atomic_query_via_index(benchmark, logs_by_size, instances):
    log = logs_by_size[instances]
    engine = VectorizedEngine()
    pattern = parse("UpdateRefer")
    benchmark.group = "B2-atomic-indexed"
    benchmark(engine.evaluate, log, pattern)


@pytest.mark.parametrize("instances", INSTANCE_COUNTS)
def test_negated_atomic_query_scans(benchmark, logs_by_size, instances):
    log = logs_by_size[instances]
    engine = VectorizedEngine()
    pattern = parse("!UpdateRefer")
    benchmark.group = "B2-atomic-negated-scan"
    benchmark(engine.evaluate, log, pattern)


@pytest.mark.parametrize("instances", INSTANCE_COUNTS)
def test_three_activity_query_scaling(benchmark, logs_by_size, instances):
    log = logs_by_size[instances]
    engine = VectorizedEngine()
    pattern = parse("GetRefer -> UpdateRefer -> GetReimburse")
    benchmark.group = "B2-query-vs-instances"
    benchmark(engine.evaluate, log, pattern)


def test_per_instance_isolation_keeps_growth_near_linear(logs_by_size):
    """Machine-independent check: examined pairs grow ~linearly with the
    instance count for a fixed per-instance workload."""
    engine = VectorizedEngine()
    pattern = parse("SeeDoctor -> PayTreatment")
    pairs = {}
    for n, log in logs_by_size.items():
        engine.evaluate(log, pattern)
        pairs[n] = engine.last_stats.pairs_examined
    smallest, largest = min(pairs), max(pairs)
    growth = pairs[largest] / max(pairs[smallest], 1)
    size_ratio = largest / smallest
    assert growth <= size_ratio * 2.5, pairs
