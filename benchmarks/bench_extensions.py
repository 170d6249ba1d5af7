"""Extension benchmarks — guards (S16) and windows (S21).

* **guard selectivity**: an attribute guard shrinks the leaf incident set
  before any join; time for ``GetRefer[...] -> GetReimburse`` must drop
  with guard selectivity (1.0 = plain atom);
* **window bound sweep**: ``A ->[k] B`` output and time grow with ``k``
  until they saturate at plain ``⊳``;
* windowed evaluation must not cost more than unbounded ⊳ on the indexed
  engine (its qualifying range is a sub-slice).
"""

from __future__ import annotations

import pytest

from repro.core.eval.vectorized import VectorizedEngine
from repro.core.model import Log
from repro.core.parser import parse


@pytest.fixture(scope="module")
def clinic(clinic_log_medium):
    return clinic_log_medium


GUARDS = {
    "none": "GetRefer -> GetReimburse",
    "half": "GetRefer[out.balance >= 2000] -> GetReimburse",
    "rare": "GetRefer[out.balance >= 8000] -> GetReimburse",
}


@pytest.mark.parametrize("selectivity", sorted(GUARDS))
def test_guarded_query(benchmark, clinic, selectivity):
    engine = VectorizedEngine()
    pattern = parse(GUARDS[selectivity])
    benchmark.group = "S16-guard-selectivity"
    benchmark(engine.evaluate, clinic, pattern)


def test_guard_reduces_work(clinic):
    engine = VectorizedEngine()
    engine.evaluate(clinic, parse(GUARDS["none"]))
    unguarded_pairs = engine.last_stats.pairs_examined
    engine.evaluate(clinic, parse(GUARDS["rare"]))
    guarded_pairs = engine.last_stats.pairs_examined
    assert guarded_pairs < unguarded_pairs


@pytest.fixture(scope="module")
def window_log() -> Log:
    # one A every 8 events, Bs everywhere: window bound controls output
    trace = (["A"] + ["B"] * 7) * 40
    return Log.from_traces([trace] * 5)


@pytest.mark.parametrize("bound", (1, 4, 16, 64))
def test_window_bound_sweep(benchmark, window_log, bound):
    engine = VectorizedEngine()
    pattern = parse(f"A ->[{bound}] B")
    benchmark.group = "S21-window-bound"
    result = benchmark(engine.evaluate, window_log, pattern)
    assert len(result) > 0


def test_window_output_grows_with_bound(window_log):
    engine = VectorizedEngine()
    sizes = [
        len(engine.evaluate(window_log, parse(f"A ->[{k}] B")))
        for k in (1, 4, 16)
    ]
    assert sizes[0] < sizes[1] < sizes[2]
    unbounded = len(engine.evaluate(window_log, parse("A -> B")))
    assert sizes[-1] <= unbounded


def test_windowed_never_examines_more_pairs_than_unbounded(window_log):
    engine = VectorizedEngine()
    engine.evaluate(window_log, parse("A -> B"))
    unbounded_pairs = engine.last_stats.pairs_examined
    engine.evaluate(window_log, parse("A ->[4] B"))
    windowed_pairs = engine.last_stats.pairs_examined
    assert windowed_pairs <= unbounded_pairs
