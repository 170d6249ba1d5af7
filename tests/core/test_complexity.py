"""Executable checks of the paper's complexity claims (Lemma 1, Theorem 1).

These tests assert the *operation counts* and *output sizes* the analysis
predicts, using the engines' instrumentation — the wall-clock versions
live in ``benchmarks/``.
"""

import math

import pytest

from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.model import Log
from repro.core.parser import parse
from repro.core.pattern import act, parallel
from repro.generator.synthetic import planted_pattern_log, worst_case_log


class TestLemma1PairBounds:
    """Each pairwise operator examines exactly n1*n2 same-instance pairs in
    the naive engine and produces at most n1*n2 incidents."""

    @pytest.mark.parametrize("op", ["->", ";", "&"])
    def test_naive_examines_all_pairs(self, op):
        log = Log.from_traces([["A", "B"] * 6])  # 6 As and 6 Bs
        engine = NaiveEngine()
        result = engine.evaluate(log, parse(f"A {op} B"))
        assert engine.last_stats.pairs_examined == 36
        assert len(result) <= 36

    def test_output_size_can_reach_quadratic(self):
        # A...A B...B : every (A, B) pair is a sequential incident
        log = Log.from_traces([["A"] * 8 + ["B"] * 8])
        result = NaiveEngine().evaluate(log, parse("A -> B"))
        assert len(result) == 64

    def test_consecutive_output_is_linear_here(self):
        log = Log.from_traces([["A", "B"] * 8])
        result = NaiveEngine().evaluate(log, parse("A ; B"))
        assert len(result) == 8

    def test_choice_output_is_additive(self):
        log = Log.from_traces([["A"] * 5 + ["B"] * 7])
        result = NaiveEngine().evaluate(log, parse("A | B"))
        assert len(result) == 12


class TestTheorem1WorstCase:
    """The ⊕-chain ``(((t ⊕ t) ⊕ t) … ⊕ t)`` on a single-instance log of m
    identical records produces C(m, k+1) * (k+1)! / dedup ... — as sets,
    exactly C(m, k+1) incidents for k operators (all (k+1)-subsets)."""

    @pytest.mark.parametrize("m,k", [(6, 1), (6, 2), (8, 2), (8, 3)])
    def test_output_size_is_m_choose_k_plus_1(self, m, k):
        log = worst_case_log(m)
        pattern = parallel(*(["t"] * (k + 1)))
        result = NaiveEngine().evaluate(log, pattern)
        assert len(result) == math.comb(m, k + 1)

    def test_growth_is_superlinear_in_m(self):
        sizes = []
        for m in (4, 8, 16):
            log = worst_case_log(m)
            result = VectorizedEngine().evaluate(log, parse("t & t & t"))
            sizes.append(len(result))
        # m^3-ish growth: doubling m should multiply output by ~8
        assert sizes[1] / sizes[0] > 4
        assert sizes[2] / sizes[1] > 4


class TestIndexedEngineSavings:
    """The indexed engine must examine strictly fewer pairs than the naive
    one on selective sequential queries."""

    def test_sequential_join_skips_failing_pairs(self):
        # half of the P2 occurrences precede every P1: those pairs fail the
        # ordering test, and the indexed engine never inspects them
        log = Log.from_traces([["P2"] * 5 + ["P1"] * 5 + ["P2"] * 5] * 4)
        pattern = parse("P1 -> P2")
        naive, indexed = NaiveEngine(), VectorizedEngine()
        naive.evaluate(log, pattern)
        indexed.evaluate(log, pattern)
        assert (
            indexed.last_stats.pairs_examined
            < naive.last_stats.pairs_examined
        )

    def test_consecutive_hash_join_examines_only_hits(self):
        log = planted_pattern_log(
            20, 30, ["P1", "P2"], plant_rate=0.5, gap=1, seed=6
        )
        pattern = parse("P1 ; P2")
        indexed = VectorizedEngine()
        result = indexed.evaluate(log, pattern)
        # hash probe only ever lands on qualifying pairs
        assert indexed.last_stats.pairs_examined == len(result)
