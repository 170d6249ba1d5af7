"""Cross-cutting property-based tests (hypothesis).

These properties tie the subsystems together: any engine must agree with
the Definition 4 oracle on any log and pattern; serialization must be
lossless; incidents must satisfy their structural invariants; the
optimizer must never change results; incidents never span instances, so
any wid partition of a log partitions its incident set.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.baselines.automaton import AutomatonBaseline, supports
from repro.baselines.sql import SqlBaseline
from repro.core.check import is_incident
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.incident import reference_incidents
from repro.core.model import Log
from repro.core.optimizer import Optimizer
from repro.core.parser import parse
from repro.core.pattern import (
    Atomic,
    Choice,
    Consecutive,
    Parallel,
    Sequential,
    to_text,
)
from repro.logstore.io_csv import read_csv, write_csv
from repro.logstore.io_jsonl import dumps, loads

import io

ALPHABET = ("A", "B", "C")


def atoms():
    return st.builds(Atomic, st.sampled_from(ALPHABET), st.booleans())


def patterns(max_leaves=4):
    return st.recursive(
        atoms(),
        lambda children: st.builds(
            lambda cls, l, r: cls(l, r),
            st.sampled_from((Consecutive, Sequential, Choice, Parallel)),
            children,
            children,
        ),
        max_leaves=max_leaves,
    )


@st.composite
def logs(draw, max_instances=3):
    n = draw(st.integers(min_value=1, max_value=max_instances))
    traces = {
        wid: [
            draw(st.sampled_from(ALPHABET + ("Z",)))
            for __ in range(draw(st.integers(min_value=1, max_value=6)))
        ]
        for wid in range(1, n + 1)
    }
    return Log.from_traces(traces, interleave=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(logs(), patterns())
def test_all_engines_agree_with_the_oracle(log, pattern):
    expected = reference_incidents(log, pattern)
    assert NaiveEngine().evaluate(log, pattern) == expected
    kernel = VectorizedEngine().evaluate(log, pattern)
    assert kernel == expected
    # soundness by a third code path: Definition 4 membership per record
    # set, with no join and no enumeration of the log
    assert all(is_incident(pattern, incident) for incident in kernel)
    assert SqlBaseline().evaluate(log, pattern) == expected
    if supports(pattern):
        assert AutomatonBaseline().evaluate(log, pattern) == expected


@settings(max_examples=60, deadline=None)
@given(logs(max_instances=5), patterns(), st.data())
def test_union_of_shards_is_the_whole_log(log, pattern, data):
    """Definition 4 keeps an incident inside one instance: for any wid
    partition ``W1 ∪ … ∪ Wn`` of ``L``, ``incL(p)`` is the disjoint union
    of ``inc(L|Wi)(p)`` over the lsn-preserving projections
    (:meth:`Log.project`), identified by the same record-lsn sets.  The
    kernel's per-wid windows rest on this."""
    n_parts = data.draw(st.integers(min_value=1, max_value=4))
    part_of = {
        wid: data.draw(st.integers(min_value=0, max_value=n_parts - 1))
        for wid in log.wids
    }
    engine = VectorizedEngine()
    union = []
    for part in range(n_parts):  # a part may be empty
        wids = {wid for wid, p in part_of.items() if p == part}
        incidents = engine.evaluate(log.project(wids), pattern)
        assert set(incidents.wids()) <= wids
        union.extend(incidents)
    expected = reference_incidents(log, pattern)
    assert len(union) == len(expected)  # disjoint: nothing found twice
    assert frozenset(union) == expected.to_set()
    assert frozenset(o.lsns for o in union) == expected.lsn_sets()


@settings(max_examples=60, deadline=None)
@given(logs(), patterns())
def test_exists_is_consistent_with_evaluate(log, pattern):
    expected = bool(reference_incidents(log, pattern))
    assert VectorizedEngine().exists(log, pattern) == expected
    assert NaiveEngine().exists(log, pattern) == expected


@settings(max_examples=50, deadline=None)
@given(logs(), patterns())
def test_optimizer_preserves_results(log, pattern):
    plan = Optimizer.for_log(log).optimize(pattern)
    assert reference_incidents(log, plan.optimized) == reference_incidents(
        log, pattern
    )


@settings(max_examples=50, deadline=None)
@given(logs(), patterns())
def test_incident_structural_invariants(log, pattern):
    for incident in reference_incidents(log, pattern):
        positions = [r.is_lsn for r in incident.records]
        assert incident.first == min(positions)
        assert incident.last == max(positions)
        assert len({r.wid for r in incident.records}) == 1
        assert all(record in log for record in incident)


@settings(max_examples=50, deadline=None)
@given(patterns(max_leaves=5))
def test_pattern_text_roundtrip(pattern):
    assert parse(to_text(pattern)) == pattern


@settings(max_examples=30, deadline=None)
@given(logs())
def test_jsonl_roundtrip(log):
    assert loads(dumps(log)) == log


@settings(max_examples=30, deadline=None)
@given(logs())
def test_csv_roundtrip(log):
    buffer = io.StringIO()
    write_csv(log, buffer)
    buffer.seek(0)
    assert read_csv(buffer) == log


@settings(max_examples=40, deadline=None)
@given(logs(), patterns(max_leaves=3), patterns(max_leaves=3))
def test_choice_is_union_and_parallel_is_symmetric(log, p1, p2):
    inc1 = reference_incidents(log, p1).to_set()
    inc2 = reference_incidents(log, p2).to_set()
    assert reference_incidents(log, Choice(p1, p2)).to_set() == inc1 | inc2
    assert reference_incidents(log, Parallel(p1, p2)) == reference_incidents(
        log, Parallel(p2, p1)
    )


@settings(max_examples=40, deadline=None)
@given(logs(), patterns(max_leaves=3), patterns(max_leaves=3))
def test_consecutive_incidents_are_sequential_incidents(log, p1, p2):
    """⊙ strengthens ⊳: every consecutive incident is a sequential one."""
    consecutive = reference_incidents(log, Consecutive(p1, p2)).to_set()
    sequential = reference_incidents(log, Sequential(p1, p2)).to_set()
    assert consecutive <= sequential


@settings(max_examples=40, deadline=None)
@given(logs(), patterns(max_leaves=4))
def test_incremental_matches_batch(log, pattern):
    from repro.core.eval.incremental import IncrementalEvaluator

    evaluator = IncrementalEvaluator(pattern)
    evaluator.extend(log)
    assert evaluator.incidents() == reference_incidents(log, pattern)


@st.composite
def chain_patterns(draw):
    """Chains of (possibly negated) atoms joined by ⊙/⊳ — the counting
    DP's supported fragment."""
    length = draw(st.integers(min_value=1, max_value=4))
    pattern = draw(atoms())
    for __ in range(length - 1):
        op = draw(st.sampled_from((Consecutive, Sequential)))
        pattern = op(pattern, draw(atoms()))
    return pattern


@settings(max_examples=60, deadline=None)
@given(logs(), chain_patterns())
def test_counting_dp_matches_materialisation(log, pattern):
    from repro.core.eval.counting import count_incidents

    assert count_incidents(log, pattern) == len(
        reference_incidents(log, pattern)
    )
