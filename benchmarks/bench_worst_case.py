"""Experiment T1 — Theorem 1: the ``O(m^k)`` worst case.

The worst case is the left-deep ⊕-chain ``(((t ⊕ t) ⊕ t) … ⊕ t)`` over a
single-instance log whose ``m`` records all carry activity ``t``: with
``k`` operators the incident set is every (k+1)-subset of the records —
``C(m, k+1)`` incidents — and evaluation cost follows.

Two sweeps: output/time vs ``k`` at fixed ``m``, and vs ``m`` at fixed
``k``.  Expected shapes: exponential in ``k``; polynomial of degree
``k+1`` in ``m``.
"""

from __future__ import annotations

import math
import time

import pytest

from repro.core.eval.naive import NaiveEngine
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.pattern import parallel
from repro.generator.synthetic import worst_case_log


def chain(k: int):
    """The Theorem 1 pattern with k ⊕ operators."""
    return parallel(*(["t"] * (k + 1)))


@pytest.mark.parametrize("k", (1, 2, 3))
def test_parallel_chain_vs_k(benchmark, k):
    log = worst_case_log(14)
    engine = NaiveEngine()
    benchmark.group = "T1-vs-k (m=14)"
    result = benchmark(engine.evaluate, log, chain(k))
    assert len(result) == math.comb(14, k + 1)


@pytest.mark.parametrize("m", (8, 16, 32))
def test_parallel_chain_vs_m(benchmark, m):
    log = worst_case_log(m)
    engine = NaiveEngine()
    benchmark.group = "T1-vs-m (k=2)"
    result = benchmark(engine.evaluate, log, chain(2))
    assert len(result) == math.comb(m, 3)


def test_exponential_growth_in_k():
    """Doubling k at fixed m must blow the runtime up super-linearly."""
    log = worst_case_log(16)
    engine = VectorizedEngine()

    def measure(k: int) -> float:
        started = time.perf_counter()
        engine.evaluate(log, chain(k))
        return time.perf_counter() - started

    t_small = max(measure(1), 1e-6)
    t_large = measure(3)
    # output grows C(16,2)=120 -> C(16,4)=1820 (~15x); the pairwise work
    # grows faster still
    assert t_large / t_small > 5


def test_output_size_formula_holds():
    for m in (6, 10, 14):
        for k in (1, 2):
            result = NaiveEngine().evaluate(worst_case_log(m), chain(k))
            assert len(result) == math.comb(m, k + 1)
