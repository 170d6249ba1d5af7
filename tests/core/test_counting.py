"""Tests for the output-free incident-counting DP."""

import random

import pytest

from repro.core.errors import EvaluationError
from repro.core.eval.counting import count_incidents, supports_counting
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.model import Log
from repro.core.parser import parse
from repro.core.algebra import random_logs
from repro.generator.synthetic import worst_case_log


class TestSupports:
    def test_chains_of_leaves_supported(self):
        for text in ("A", "!A", "A -> B", "A ; B -> C", "A ->[3] B ; C",
                     "A[x > 1] -> B"):
            assert supports_counting(parse(text)), text

    def test_choice_and_parallel_not_supported(self):
        for text in ("A | B", "A & B", "(A | B) -> C", "(A & B) ; C"):
            assert not supports_counting(parse(text)), text

    def test_unsupported_pattern_raises(self, figure3_log):
        with pytest.raises(EvaluationError):
            count_incidents(figure3_log, parse("A | B"))


class TestExactness:
    def test_paper_example(self, figure3_log):
        assert count_incidents(
            figure3_log, parse("UpdateRefer -> GetReimburse")
        ) == 1
        assert count_incidents(
            figure3_log, parse("SeeDoctor -> (UpdateRefer -> GetReimburse)")
        ) == 1

    def test_quadratic_output_counted_without_materialisation(self):
        log = Log.from_traces([["A"] * 200 + ["B"] * 200])
        assert count_incidents(log, parse("A -> B")) == 200 * 200

    def test_worst_case_chain(self):
        # C(m, 2) increasing pairs of identical activities
        log = worst_case_log(50)
        assert count_incidents(log, parse("t -> t")) == 50 * 49 // 2

    def test_consecutive_and_window_counts(self):
        log = Log.from_traces([["A", "B", "X", "B", "B"]])
        assert count_incidents(log, parse("A ; B")) == 1
        assert count_incidents(log, parse("A ->[2] B")) == 1
        assert count_incidents(log, parse("A ->[3] B")) == 2
        assert count_incidents(log, parse("A -> B")) == 3

    def test_empty_leaf_short_circuits(self, figure3_log):
        assert count_incidents(figure3_log, parse("Ghost -> SeeDoctor")) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_differential_against_materialisation(self, seed):
        rng = random.Random(seed)
        logs = random_logs("ABC", cases=6, seed=seed + 50)
        naive = NaiveEngine()
        texts = ["A", "!B", "A -> B", "A ; B", "A -> B -> C", "A ; B ; C",
                 "A ->[2] B", "A -> A", "!A -> !B", "A ; B -> A"]
        for __ in range(20):
            log = rng.choice(logs)
            text = rng.choice(texts)
            pattern = parse(text)
            assert count_incidents(log, pattern) == len(
                naive.evaluate(log, pattern)
            ), (text,)


class TestEngineIntegration:
    def test_indexed_count_uses_dp(self):
        log = Log.from_traces([["A"] * 300 + ["B"] * 300])
        engine = VectorizedEngine(max_incidents=10)  # materialising would blow
        assert engine.count(log, parse("A -> B")) == 300 * 300

    def test_indexed_count_falls_back_for_choices(self, figure3_log):
        engine = VectorizedEngine()
        pattern = parse("SeeDoctor | PayTreatment")
        assert engine.count(figure3_log, pattern) == len(
            engine.evaluate(figure3_log, pattern)
        )

    def test_query_count_benefits(self):
        from repro.core.query import Query

        log = Log.from_traces([["A"] * 200 + ["B"] * 200])
        assert Query("A -> B").count(log) == 40_000
