"""Hypothesis properties: sharded union == whole-log, for any partition.

The central losslessness claim (satellite c of the parallelism work):
for random logs, random patterns, both shard strategies and every
engine, the union of per-shard incident sets equals the whole-log
incident set — element for element, in the canonical order.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.eval.vectorized import VectorizedEngine
from repro.core.incident import reference_incidents
from repro.core.model import Log
from repro.core.parser import parse
from repro.core.pattern import Atomic, Choice, Consecutive, Parallel, Sequential
from repro.exec import ParallelExecutor, plan_shards

ALPHABET = ("A", "B", "C")


def atoms():
    return st.builds(Atomic, st.sampled_from(ALPHABET), st.booleans())


def patterns(max_leaves=4):
    return st.recursive(
        atoms(),
        lambda children: st.builds(
            lambda cls, left, right: cls(left, right),
            st.sampled_from((Consecutive, Sequential, Choice, Parallel)),
            children,
            children,
        ),
        max_leaves=max_leaves,
    )


@st.composite
def logs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    traces = {
        wid: [
            draw(st.sampled_from(ALPHABET + ("Z",)))
            for __ in range(draw(st.integers(min_value=1, max_value=6)))
        ]
        for wid in range(1, n + 1)
    }
    return Log.from_traces(traces, interleave=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(
    logs(),
    patterns(),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(("hash", "range")),
)
def test_union_of_shards_is_the_whole_log(log, pattern, n_shards, strategy):
    expected = reference_incidents(log, pattern)
    plan = plan_shards(log, n_shards, strategy=strategy)
    plan.verify_lossless()
    engine = VectorizedEngine()
    union = []
    for shard in plan:
        union.extend(engine.evaluate(shard.log, pattern))
    assert frozenset(union) == expected.to_set()


@settings(max_examples=40, deadline=None)
@given(
    logs(),
    patterns(),
    st.sampled_from(("naive", "vectorized", "incremental")),
    st.sampled_from(("hash", "range")),
)
def test_executor_serial_equivalence_all_engines(log, pattern, engine, strategy):
    expected = reference_incidents(log, pattern)
    executor = ParallelExecutor(
        jobs=3, backend="serial", strategy=strategy, engine=engine
    )
    result = executor.evaluate(log, pattern)
    assert result.incidents == expected
    # canonical order: element-for-element against the sorted reference
    assert list(result.incidents) == sorted(expected.to_set())


@settings(max_examples=5, deadline=None)
@given(logs(), patterns(max_leaves=3))
def test_process_backend_equivalence(log, pattern):
    """A few examples through a real 2-worker process pool (expensive,
    so the bulk of the coverage rides on the serial-backend property —
    the pool changes only *where* shards run, not what they compute)."""
    expected = reference_incidents(log, pattern)
    result = ParallelExecutor(jobs=2, backend="process").evaluate(log, pattern)
    assert result.incidents == expected
    assert list(result.incidents) == sorted(expected.to_set())


def test_clinic_pathway_on_all_engines_process_pool(clinic_log):
    """The acceptance gate: process backend with >= 2 workers, identical
    to serial, for all four evaluation paths (naive, the kernel,
    incremental, and the counting DP via count)."""
    pattern = parse("GetRefer -> CheckIn -> SeeDoctor")
    serial = list(VectorizedEngine().evaluate(clinic_log, pattern))
    for engine in ("naive", "vectorized", "incremental"):
        executor = ParallelExecutor(jobs=2, backend="process", engine=engine)
        assert list(executor.evaluate(clinic_log, pattern).incidents) == serial
    counted = ParallelExecutor(jobs=2, backend="process").count(
        clinic_log, pattern
    )
    assert counted == len(serial)
