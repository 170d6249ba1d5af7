"""Experiment L1 — Lemma 1: per-operator evaluation cost scaling.

Lemma 1 claims, for input incident sets of sizes ``n1``, ``n2``:

* ``⊙``, ``⊳`` evaluate in ``O(n1 * n2)``;
* ``⊗`` in ``O(n1 * n2 * min(k1, k2))`` (dominated by dedup; additive when
  the activity multisets differ);
* ``⊕`` in ``O(n1 * n2 * (k1 + k2))``.

Each benchmark fixes ``n1 == n2 == n`` and sweeps ``n``; the measured
times must grow ~quadratically for the pairwise operators (doubling n →
~4x time).  The ``test_quadratic_shape`` check asserts the fitted scaling
exponent without the benchmark plugin, so the claim is also enforced in
plain test runs.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import best_of
from repro.core.eval.naive import (
    choice_eval,
    consecutive_eval,
    parallel_eval,
    sequential_eval,
)
from repro.core.incident import Incident
from repro.core.model import Log
from tests.support.workloads import records_of

SIZES = (64, 128, 256)

OPERATORS = {
    "consecutive": consecutive_eval,
    "sequential": sequential_eval,
    "choice": choice_eval,
    "parallel": parallel_eval,
}


def operand_sets(n: int) -> tuple[list[Incident], list[Incident]]:
    """Two incident lists of size n over one instance: As then Bs, so the
    sequential operator produces its full quadratic output."""
    log = Log.from_traces([["A"] * n + ["B"] * n])
    a = [Incident([r]) for r in records_of(log, "A")]
    b = [Incident([r]) for r in records_of(log, "B")]
    return a, b


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("operator", sorted(OPERATORS))
def test_operator_eval(benchmark, operator, n):
    inc1, inc2 = operand_sets(n)
    evaluate = OPERATORS[operator]
    benchmark.group = f"L1-{operator}"
    result = benchmark(evaluate, inc1, inc2)
    # sanity: output sizes match Lemma 1's bounds
    assert len(result) <= n * n


def _measure(evaluate, n: int) -> float:
    inc1, inc2 = operand_sets(n)
    started = time.perf_counter()
    evaluate(inc1, inc2)
    return time.perf_counter() - started


@pytest.mark.parametrize("operator", ["sequential", "parallel"])
def test_quadratic_shape(operator):
    """Fitted exponent of t(n) for the pairwise operators is ~2 (between
    1.5 and 3 to absorb constant-factor noise)."""
    import math

    evaluate = OPERATORS[operator]
    t1 = max(_measure(evaluate, 128), 1e-5)
    t2 = max(_measure(evaluate, 512), 1e-5)
    exponent = math.log(t2 / t1) / math.log(512 / 128)
    assert 1.3 <= exponent <= 3.2, f"{operator}: exponent {exponent:.2f}"


def test_null_tracer_overhead():
    """Experiment O1 — disabled tracing is free.

    Evaluating under ``NULL_TRACER.span(...)`` must cost within 5% of the
    bare call (interleaved min-of-N, :func:`benchmarks.conftest.best_of`).
    """
    from repro.obs.tracer import NULL_TRACER

    inc1, inc2 = operand_sets(256)

    def bare() -> None:
        sequential_eval(inc1, inc2)

    def traced() -> None:
        with NULL_TRACER.span("⊳", key=0) as span:
            sequential_eval(inc1, inc2)
            span.add(pairs=len(inc1) * len(inc2))

    best = best_of({"bare": bare, "traced": traced})
    overhead = best["traced"] / best["bare"] - 1.0
    assert overhead <= 0.05, f"null tracer overhead {overhead:.1%} exceeds 5%"
