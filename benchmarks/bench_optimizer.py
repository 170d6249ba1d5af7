"""Experiments T2-T5 — the algebraic laws as an optimizer, measured.

The paper proves Theorems 2-5 "as a basis for query optimization" but
builds no optimizer.  These benchmarks quantify what the laws buy on
realistic skew:

* ``chain re-association`` (Theorems 2+4): a rare-activity chain evaluated
  in the pathological right-deep association vs the DP-chosen plan;
* ``choice factoring`` (Theorem 5): ``(p ⊳ q1) ⊗ (p ⊳ q2)`` vs the
  factored ``p ⊳ (q1 ⊗ q2)``;
* optimizer overhead: planning cost itself, which must stay negligible
  next to evaluation.

Expected shape: optimized plans win by integer factors on skewed logs and
never lose materially on uniform ones.
"""

from __future__ import annotations

import pytest

from repro.core.eval.vectorized import VectorizedEngine
from repro.core.model import Log
from repro.core.optimizer import Optimizer
from repro.core.parser import parse


def skewed_log(instances: int = 60, hot: int = 20) -> Log:
    """R occurs once, in one instance, ahead of a hot activity burst."""
    traces = {}
    for wid in range(1, instances + 1):
        traces[wid] = (["R"] if wid == 1 else []) + ["H"] * hot + ["M"] * 4
    return Log.from_traces(traces)


PATHOLOGICAL = "R -> (H -> H)"

CHOICE_UNFACTORED = "(H -> H -> R) | (H -> H -> M)"


@pytest.fixture(scope="module")
def log():
    return skewed_log()


def test_pathological_association(benchmark, log):
    engine = VectorizedEngine()
    pattern = parse(PATHOLOGICAL)
    benchmark.group = "T2/T4 chain re-association"
    benchmark(engine.evaluate, log, pattern)


def test_optimized_association(benchmark, log):
    engine = VectorizedEngine()
    plan = Optimizer.for_log(log).optimize(parse(PATHOLOGICAL))
    assert plan.optimized != parse(PATHOLOGICAL)
    benchmark.group = "T2/T4 chain re-association"
    result_optimized = benchmark(engine.evaluate, log, plan.optimized)
    assert result_optimized == engine.evaluate(log, parse(PATHOLOGICAL))


def test_unfactored_choice(benchmark, log):
    engine = VectorizedEngine()
    benchmark.group = "T5 choice factoring"
    benchmark(engine.evaluate, log, parse(CHOICE_UNFACTORED))


def test_factored_choice(benchmark, log):
    engine = VectorizedEngine()
    plan = Optimizer.for_log(log).optimize(parse(CHOICE_UNFACTORED))
    benchmark.group = "T5 choice factoring"
    result = benchmark(engine.evaluate, log, plan.optimized)
    assert result == engine.evaluate(log, parse(CHOICE_UNFACTORED))


def test_planning_overhead(benchmark, log):
    optimizer = Optimizer.for_log(log)
    pattern = parse("(H -> H -> R) | (H -> H -> M)")
    benchmark.group = "optimizer overhead"
    benchmark(optimizer.optimize, pattern)


def test_measured_speedup_exceeds_threshold(log):
    """The re-associated plan must beat the pathological one by >= 2x in
    examined pairs (the machine-independent cost measure)."""
    from repro.core.eval.naive import NaiveEngine

    engine = NaiveEngine()
    pattern = parse(PATHOLOGICAL)
    engine.evaluate(log, pattern)
    pairs_before = engine.last_stats.pairs_examined
    plan = Optimizer.for_log(log).optimize(pattern)
    engine.evaluate(log, plan.optimized)
    pairs_after = engine.last_stats.pairs_examined
    assert pairs_before / max(pairs_after, 1) >= 2.0
