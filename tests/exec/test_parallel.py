"""Parallel executor: serial equivalence, merging, dispatch, wiring."""

import pytest

from repro.core.eval.incremental import IncrementalEvaluator
from repro.core.model import Log
from repro.core.optimizer.cost import DispatchCostModel
from repro.core.parser import parse
from repro.core.options import EngineOptions
from repro.core.query import ENGINES, Query
from repro.exec import ParallelExecutor
from repro.exec.backends import make_backend
from repro.core.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

PATTERN = "GetRefer -> CheckIn -> SeeDoctor"

#: (backend, jobs) combos exercised for every engine.  The process pool
#: is the expensive one, so it runs once per engine, with 2 workers.
COMBOS = [("serial", 1), ("thread", 2), ("process", 2)]


#: Worker engines; ids as in ``tests/conftest.py``: the kernel runs as "indexed".
WORKER_ENGINES = ["naive", pytest.param("vectorized", id="indexed"), "incremental"]


def serial_incidents(log, pattern_text=PATTERN):
    return list(ENGINES["naive"]().evaluate(log, parse(pattern_text)))


@pytest.mark.parametrize("backend,jobs", COMBOS)
@pytest.mark.parametrize("engine", WORKER_ENGINES)
@pytest.mark.parametrize("strategy", ["hash", "range"])
def test_parallel_equals_serial(clinic_log, backend, jobs, engine, strategy):
    expected = serial_incidents(clinic_log)
    executor = ParallelExecutor(
        jobs=jobs, backend=backend, strategy=strategy, engine=engine
    )
    result = executor.evaluate(clinic_log, parse(PATTERN))
    # byte-for-byte: same set AND same canonical iteration order
    assert list(result.incidents) == expected
    assert result.backend == backend and result.jobs == jobs


def test_incremental_engine_matches_batch_reference(clinic_log):
    pattern = parse(PATTERN)
    expected = IncrementalEvaluator(pattern, clinic_log).incidents()
    result = ParallelExecutor(
        jobs=2, backend="serial", engine="incremental"
    ).evaluate(clinic_log, pattern)
    assert result.incidents == expected


def test_count_matches_evaluate(clinic_log):
    pattern = parse("GetRefer -> CheckIn")
    executor = ParallelExecutor(jobs=2, backend="serial")
    assert executor.count(clinic_log, pattern) == len(
        executor.evaluate(clinic_log, pattern).incidents
    )


def test_merged_stats_equal_serial_totals(clinic_log):
    """Per-wid evaluation means sharding re-partitions, never changes,
    the work: summed shard counters equal the serial counters."""
    pattern = parse(PATTERN)
    engine = ENGINES["vectorized"]()
    engine.evaluate(clinic_log, pattern)
    serial_stats = engine.last_stats

    result = ParallelExecutor(jobs=3, backend="serial").evaluate(
        clinic_log, pattern
    )
    assert result.stats.pairs_examined == serial_stats.pairs_examined
    assert result.stats.operator_evals == serial_stats.operator_evals
    assert result.stats.incidents_produced == serial_stats.incidents_produced
    assert result.stats.per_operator == serial_stats.per_operator
    # the peak is per-shard, so it can only be <= the serial peak
    assert result.stats.max_live_incidents <= serial_stats.max_live_incidents


def test_span_merge_keeps_serial_shape_and_totals(clinic_log):
    pattern = parse(PATTERN)
    serial_tracer = Tracer()
    engine = ENGINES["vectorized"](tracer=serial_tracer)
    engine.evaluate(clinic_log, pattern)
    serial_root = serial_tracer.last_root

    tracer = Tracer()
    executor = ParallelExecutor(jobs=3, backend="serial", tracer=tracer)
    executor.evaluate(clinic_log, pattern)
    merged = tracer.last_root

    assert merged is not None
    def shape(span):
        return (span.label, tuple(shape(c) for c in span.children))
    assert shape(merged) == shape(serial_root)
    assert merged.total("pairs") == serial_root.total("pairs")
    assert merged.total("incidents") == serial_root.total("incidents")


def test_metrics_publish_once(clinic_log):
    registry = MetricsRegistry()
    executor = ParallelExecutor(jobs=3, backend="serial", metrics=registry)
    executor.evaluate(clinic_log, parse(PATTERN))
    assert registry.counter("engine.evaluations").value == 1
    assert registry.counter("engine.pairs_examined").value > 0


def test_dispatch_cost_model_choices():
    model = DispatchCostModel()
    # tiny plan: never leaves the calling process
    assert model.choose_backend(jobs=4, records=100, plan_cost=1_000) == "serial"
    # one worker: nothing to parallelise
    assert model.choose_backend(jobs=1, records=100, plan_cost=1e9) == "serial"
    # huge plan, several workers: the pool amortises
    assert model.choose_backend(jobs=4, records=10_000, plan_cost=1e9) == "process"
    # thread workers cannot run the pure-Python joins concurrently
    assert model.effective_workers("thread", 4) == 1
    assert model.effective_workers("process", 4) == 4
    assert model.overhead("serial", 4, 10_000) == 0.0


def test_auto_backend_stays_serial_for_small_logs(figure3_log):
    executor = ParallelExecutor(jobs=4, backend="auto")
    result = executor.evaluate(figure3_log, parse("GetRefer -> CheckIn"))
    assert result.backend == "serial"


def test_empty_log_evaluates_to_empty():
    empty = Log((), validate=False)
    result = ParallelExecutor(jobs=2, backend="serial").evaluate(
        empty, parse("A -> B")
    )
    assert len(result.incidents) == 0 and result.count == 0


def test_unknown_backend_and_engine_are_rejected(figure3_log):
    with pytest.raises(ReproError):
        make_backend("gpu", 2)
    executor = ParallelExecutor(jobs=2, backend="serial", engine="warp")
    with pytest.raises(ReproError):
        executor.evaluate(figure3_log, parse("A -> B"))


# -- Query facade -----------------------------------------------------------

def test_query_jobs_routes_through_executor(clinic_log):
    serial = Query(PATTERN).run(clinic_log)
    parallel = Query(PATTERN, EngineOptions(jobs=2, backend="serial")).run(clinic_log)
    assert list(parallel) == list(serial)


def test_query_parallel_count_and_stats(clinic_log):
    query = Query("GetRefer -> CheckIn", EngineOptions(jobs=2, backend="serial"))
    count = query.count(clinic_log)
    assert count == Query("GetRefer -> CheckIn").count(clinic_log)
    query.run(clinic_log)
    assert query.engine.last_stats is not None
    assert query.engine.last_stats.pairs_examined > 0


def test_query_process_pool_end_to_end(clinic_log):
    serial = Query(PATTERN).run(clinic_log)
    parallel = Query(PATTERN, EngineOptions(jobs=2, backend="process")).run(clinic_log)
    assert list(parallel) == list(serial)


def test_query_serial_by_default(clinic_log):
    query = Query(PATTERN)
    assert not query.is_parallel
    assert Query(PATTERN, EngineOptions(jobs=2)).is_parallel
    assert Query(PATTERN, EngineOptions(backend="process")).is_parallel


# -- profiler ---------------------------------------------------------------

def test_profile_query_parallel_matches_serial_totals(clinic_log):
    from repro.obs.profile import profile_query

    serial_report = profile_query(clinic_log, PATTERN)
    parallel_report = profile_query(clinic_log, PATTERN, jobs=2)
    assert parallel_report.incidents == serial_report.incidents
    assert (
        parallel_report.stats.pairs_examined
        == serial_report.stats.pairs_examined
    )
    assert parallel_report.extra["jobs"] == 2
    assert parallel_report.extra["backend"] == "process"
    # per-node breakdown still covers the whole pattern tree
    assert len(parallel_report.nodes) == len(serial_report.nodes)
    assert [n.label for n in parallel_report.nodes] == [
        n.label for n in serial_report.nodes
    ]
