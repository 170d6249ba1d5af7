"""Experiment B3 — ablations of the design choices DESIGN.md calls out.

* **choice dedup** (Section 3.1): the paper notes duplicate elimination in
  ``⊗`` is only needed when the operands' activity multisets coincide.
  Measured: dedup on vs off, for multiset-equal and multiset-disjoint
  operands.
* **sequential join strategy**: the paper's pairwise scan vs the indexed
  engine's binary-search join, isolated on one operator.
* **greedy exists**: the indexed engine's linear existence scan vs full
  materialisation, on long logs where the match sits early vs absent.
"""

from __future__ import annotations

import pytest

from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine, choice_eval, sequential_eval
from repro.core.incident import Incident
from repro.core.model import Log
from repro.core.parser import parse
from tests.support.workloads import records_of


def no_dedup_choice_eval(inc1, inc2, stats=None):
    """Ablated CHOICE-EVAL: plain concatenation, no duplicate check."""
    return list(inc1) + list(inc2)


def overlapping_operands(n: int):
    """Two identical incident lists (multiset-equal worst case for ⊗)."""
    log = Log.from_traces([["A"] * n])
    items = [Incident([r]) for r in records_of(log, "A")]
    return items, list(items)


def disjoint_operands(n: int):
    log = Log.from_traces([["A"] * n + ["B"] * n])
    a = [Incident([r]) for r in records_of(log, "A")]
    b = [Incident([r]) for r in records_of(log, "B")]
    return a, b


@pytest.mark.parametrize("variant", ["dedup", "no-dedup"])
@pytest.mark.parametrize("overlap", ["equal-multisets", "disjoint-multisets"])
def test_choice_dedup_ablation(benchmark, variant, overlap):
    n = 2000
    inc1, inc2 = (
        overlapping_operands(n) if overlap == "equal-multisets"
        else disjoint_operands(n)
    )
    evaluate = choice_eval if variant == "dedup" else no_dedup_choice_eval
    benchmark.group = f"B3-choice-dedup-{overlap}"
    result = benchmark(evaluate, inc1, inc2)
    if variant == "dedup" and overlap == "equal-multisets":
        assert len(result) == n  # duplicates actually removed


@pytest.mark.parametrize("strategy", ["pairwise", "binary-search"])
def test_sequential_join_ablation(benchmark, strategy):
    """A selective ⊳ join where failing pairs dominate: 300 left incidents
    each see 1300 right incidents, but only the trailing 20 qualify.
    Pairwise inspects ~390k pairs; the binary-search join inspects ~6k."""
    log = Log.from_traces([["B"] * 1300 + ["A"] * 300 + ["B"] * 20])
    pattern = parse("A -> B")
    engine = NaiveEngine() if strategy == "pairwise" else VectorizedEngine()
    benchmark.group = "B3-sequential-join"
    result = benchmark(engine.evaluate, log, pattern)
    assert len(result) == 300 * 20


@pytest.mark.parametrize("strategy", ["greedy-exists", "full-evaluate"])
@pytest.mark.parametrize("outcome", ["present", "absent"])
def test_exists_ablation(benchmark, strategy, outcome):
    trace = ["A"] + ["X"] * 400 + ["B"] + ["X"] * 400 + ["C"] * 50
    if outcome == "absent":
        trace = [name for name in trace if name != "C"]
    log = Log.from_traces([trace] * 10)
    pattern = parse("A -> B -> C")
    engine = VectorizedEngine()
    benchmark.group = f"B3-exists-{outcome}"
    if strategy == "greedy-exists":
        run = lambda: engine.exists(log, pattern)  # noqa: E731
    else:
        run = lambda: bool(engine.evaluate(log, pattern))  # noqa: E731
    result = benchmark(run)
    assert result == (outcome == "present")


@pytest.mark.parametrize("strategy", ["counting-dp", "materialise"])
def test_count_ablation(benchmark, strategy):
    """Counting a quadratic-output ⊳ chain: the DP never touches pairs."""
    log = Log.from_traces([["A"] * 400 + ["B"] * 400])
    pattern = parse("A -> B")
    engine = VectorizedEngine()
    benchmark.group = "B3-counting"
    if strategy == "counting-dp":
        run = lambda: engine.count(log, pattern)  # noqa: E731
    else:
        run = lambda: len(engine.evaluate(log, pattern))  # noqa: E731
    assert benchmark(run) == 160_000
