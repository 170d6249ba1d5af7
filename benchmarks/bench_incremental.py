"""Experiment S19 — streaming vs batch re-evaluation.

The warehousing critique in the paper's related work is that ETL cannot
support *runtime* monitoring.  This bench quantifies the streaming
advantage of the incremental evaluator: maintaining ``incL(p)`` while a
log grows, versus re-running batch evaluation after every appended
record (what a poll-the-warehouse architecture effectively does).

Expected shape: per-record incremental cost is (amortised) small and
independent of history length for selective patterns, so the incremental
total is linear in the stream while repeated batch evaluation is
quadratic.
"""

from __future__ import annotations

import pytest

from repro.core.eval.incremental import IncrementalEvaluator
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.model import Log
from repro.core.parser import parse
from tests.support.workloads import clinic_log

PATTERN = "UpdateRefer -> GetReimburse"


@pytest.fixture(scope="module")
def stream_log() -> Log:
    return clinic_log(60, seed=11)


def test_incremental_stream(benchmark, stream_log):
    pattern = parse(PATTERN)
    benchmark.group = "S19-streaming"

    def run():
        evaluator = IncrementalEvaluator(pattern)
        for record in stream_log:
            evaluator.append(record)
        return evaluator.incidents()

    result = benchmark(run)
    assert result == VectorizedEngine().evaluate(stream_log, pattern)


def test_batch_reevaluation_per_append(benchmark, stream_log):
    """The poll-based alternative: re-evaluate after every Kth record
    (K=10 — polling *less* often than the incremental evaluator updates,
    so the comparison favours the baseline)."""
    pattern = parse(PATTERN)
    engine = VectorizedEngine()
    benchmark.group = "S19-streaming"

    def run():
        result = None
        for cutoff in range(10, len(stream_log) + 1, 10):
            prefix = Log(stream_log.records[:cutoff], validate=False)
            result = engine.evaluate(prefix, pattern)
        return result

    result = benchmark(run)
    assert result == VectorizedEngine().evaluate(stream_log, pattern)


def test_single_append_latency(benchmark, stream_log):
    """Steady-state latency of one append with full history loaded."""
    pattern = parse(PATTERN)
    *history, final = stream_log.records
    warm = IncrementalEvaluator(pattern)
    for record in history:
        warm.append(record)
    benchmark.group = "S19-append-latency"

    import copy

    def setup():
        # appending mutates: hand each round a fresh state copy, with the
        # copy cost excluded from the measurement
        return (copy.deepcopy(warm), final), {}

    def run(evaluator, record):
        return evaluator.append(record)

    benchmark.pedantic(run, setup=setup, rounds=30)
