"""Engine behaviour tests: correctness against the Definition 4 oracle,
budget enforcement, short-circuit exists, and evaluation statistics."""

import random

import pytest

from repro.core.algebra import random_logs
from repro.core.errors import BudgetExceededError
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.incident import reference_incidents
from repro.core.model import Log
from repro.core.parser import parse
from repro.core.pattern import random_pattern
from repro.generator.synthetic import worst_case_log


class TestDifferentialAgainstOracle:
    """Both engines must agree with the literal Definition 4 semantics on
    randomized logs and patterns."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_patterns_and_logs(self, engine, seed):
        rng = random.Random(seed)
        logs = random_logs("ABCD", cases=6, seed=seed)
        for __ in range(12):
            log = rng.choice(logs)
            pattern = random_pattern(rng, "ABCD", max_depth=4)
            expected = reference_incidents(log, pattern)
            assert engine.evaluate(log, pattern) == expected, str(pattern)

    def test_engines_agree_on_clinic_log(self, clinic_log):
        queries = [
            "UpdateRefer -> GetReimburse",
            "SeeDoctor ; PayTreatment",
            "GetRefer -> (CompleteRefer | TerminateRefer)",
            "SeeDoctor & PayTreatment",
            "!UpdateRefer ; GetReimburse",
        ]
        naive, indexed = NaiveEngine(), VectorizedEngine()
        for text in queries:
            pattern = parse(text)
            assert naive.evaluate(clinic_log, pattern) == indexed.evaluate(
                clinic_log, pattern
            ), text


class TestEmptyResults:
    def test_unknown_activity_has_no_incidents(self, engine, figure3_log):
        assert len(engine.evaluate(figure3_log, parse("NoSuchActivity"))) == 0

    def test_impossible_ordering(self, engine, figure3_log):
        # CompleteRefer is the last activity of instance 1
        assert not engine.evaluate(
            figure3_log, parse("CompleteRefer -> GetRefer")
        )

    def test_operator_over_empty_operand(self, engine, figure3_log):
        assert not engine.evaluate(figure3_log, parse("Ghost -> SeeDoctor"))
        assert not engine.evaluate(figure3_log, parse("SeeDoctor & Ghost"))
        # choice with one empty branch keeps the other
        result = engine.evaluate(figure3_log, parse("Ghost | SeeDoctor"))
        assert len(result) == 4


class TestBudget:
    def test_budget_exceeded_raises(self):
        log = worst_case_log(30)
        engine = NaiveEngine(max_incidents=100)
        with pytest.raises(BudgetExceededError) as excinfo:
            engine.evaluate(log, parse("t & t & t"))
        assert excinfo.value.limit == 100

    def test_budget_not_triggered_below_cap(self, figure3_log):
        engine = VectorizedEngine(max_incidents=1000)
        engine.evaluate(figure3_log, parse("SeeDoctor -> PayTreatment"))

    def test_budget_applies_to_intermediates(self):
        # the final result is empty, but the intermediate ⊕ explodes
        log = worst_case_log(40)
        engine = VectorizedEngine(max_incidents=200)
        with pytest.raises(BudgetExceededError):
            engine.evaluate(log, parse("(t & t) ; Ghost"))


class TestExists:
    def test_exists_matches_evaluate_on_random_inputs(self, engine):
        rng = random.Random(77)
        logs = random_logs("ABC", cases=6, seed=13)
        for __ in range(40):
            log = rng.choice(logs)
            pattern = random_pattern(rng, "ABC", max_depth=4)
            assert engine.exists(log, pattern) == bool(
                reference_incidents(log, pattern)
            ), str(pattern)

    def test_greedy_fast_path_on_sequential_chains(self, figure3_log):
        engine = VectorizedEngine()
        assert engine.exists(figure3_log, parse("GetRefer -> CheckIn -> SeeDoctor"))
        assert not engine.exists(
            figure3_log, parse("GetReimburse -> UpdateRefer")
        )

    def test_greedy_fast_path_with_choice(self, figure3_log):
        engine = VectorizedEngine()
        assert engine.exists(
            figure3_log, parse("(TerminateRefer | CompleteRefer) -> END")
        ) is False  # no END records in the Figure 3 prefix
        assert engine.exists(
            figure3_log, parse("GetRefer -> (TerminateRefer | CompleteRefer)")
        )

    def test_exists_counterexample_requiring_nonfirst_match(self):
        # Greedy must not commit to the earliest B: pattern (B ; C) needs
        # the *second* B.  exists() falls back to full evaluation for ⊙.
        log = Log.from_traces([["B", "X", "B", "C"]])
        engine = VectorizedEngine()
        assert engine.exists(log, parse("B ; C"))

    def test_a_hit_in_the_first_instance_stops_the_scan(self):
        # the non-greedy fallback runs over 1, 2, 4, ... instances: a hit
        # in the first one joins that instance alone
        log = Log.from_traces([["B", "C"], *[["B", "X", "C"]] * 60])
        engine = VectorizedEngine()
        assert engine.exists(log, parse("B ; C"))
        assert engine.last_stats.operator_evals == 1
        assert not engine.exists(log, parse("C ; B"))
        assert engine.last_stats.operator_evals == 61


class TestExistsFinishesItsStats:
    """Both ``exists`` strategies install ``last_stats`` and count one
    evaluation on every return path, governed or not — the greedy scan
    used to return without finishing."""

    #: (pattern, expected answer): greedy {atom, ⊳, ⊗} scan, then the
    #: compiled per-instance fallback, each with a hit and a miss
    CASES = [
        ("GetRefer -> CheckIn", True),
        ("GetReimburse -> UpdateRefer", False),
        ("SeeDoctor ; PayTreatment", True),
        ("Ghost ; SeeDoctor", False),
    ]

    @pytest.mark.parametrize("governed", [False, True], ids=["free", "governed"])
    @pytest.mark.parametrize("text,expected", CASES)
    def test_engine_exists(self, figure3_log, text, expected, governed):
        from repro.core.governor import ResourceGovernor
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        engine = VectorizedEngine(
            metrics=registry,
            governor=ResourceGovernor(max_pairs=10**9) if governed else None,
        )
        # stale stats from an earlier run must not survive either
        engine.evaluate(figure3_log, parse("SeeDoctor -> PayTreatment"))
        stale = engine.last_stats
        assert engine.exists(figure3_log, parse(text)) is expected
        assert engine.last_stats is not None and engine.last_stats is not stale
        assert registry.counter("engine.evaluations").value == 2

    @pytest.mark.parametrize("governed", [False, True], ids=["free", "governed"])
    @pytest.mark.parametrize("text,expected", CASES)
    def test_query_exists(self, figure3_log, text, expected, governed):
        from repro.core.options import EngineOptions
        from repro.core.query import Query

        options = EngineOptions(max_pairs=10**9) if governed else None
        query = Query(text, options)
        assert query.exists(figure3_log) is expected
        assert query.engine.last_stats is not None


class TestStats:
    def test_naive_pair_counts_match_lemma1(self, figure3_log):
        engine = NaiveEngine()
        engine.evaluate(figure3_log, parse("SeeDoctor -> PayTreatment"))
        stats = engine.last_stats
        # instance 1: 2 SeeDoctor x 2 PayTreatment; instance 2: 2 x 1
        assert stats.pairs_examined == 2 * 2 + 2 * 1
        assert stats.operator_evals == len(figure3_log.wids)

    def test_indexed_examines_no_failing_sequential_pairs(self, figure3_log):
        engine = VectorizedEngine()
        result = engine.evaluate(figure3_log, parse("SeeDoctor -> PayTreatment"))
        # every examined pair produced an incident (pairs == result size,
        # as unions here are all distinct)
        assert engine.last_stats.pairs_examined == len(result)

    def test_per_operator_counters(self, figure3_log):
        engine = NaiveEngine()
        engine.evaluate(figure3_log, parse("(A -> B) & (C | D)"))
        per_op = engine.last_stats.per_operator
        wids = len(figure3_log.wids)
        assert per_op == {"⊳": wids, "⊗": wids, "⊕": wids}
