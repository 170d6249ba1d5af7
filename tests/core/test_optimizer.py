"""Unit tests for the cost model, rewrite rules and planner."""

import gc
import random

import pytest

from repro.core.algebra import flatten_chain, random_logs
from repro.core.incident import reference_incidents
from repro.core.model import Log
from repro.core.optimizer.cost import CostModel, LogStatistics
from repro.core.optimizer.planner import Optimizer, reassociate_chain
from repro.core.optimizer.rules import (
    REWRITE_RULES,
    apply_bottom_up,
    dedup_choice,
    factor_choice,
    push_choice_out,
)
from repro.core.parser import parse
from repro.core.pattern import Atomic, Choice, random_pattern
from repro.core.query import Query
from tests.support.workloads import clinic_log


@pytest.fixture()
def skewed_log() -> Log:
    """A log with very skewed activity counts (H hot, R rare; R occurs
    only in instance 1, ahead of the hot activities)."""
    traces = {}
    for wid in range(1, 11):
        traces[wid] = (["R"] if wid == 1 else []) + ["H"] * 12 + ["M"] * 3
    return Log.from_traces(traces)


class TestLogStatistics:
    def test_counts(self, figure3_log):
        stats = LogStatistics.from_log(figure3_log)
        assert stats.total_records == 20
        assert stats.instance_count == 3
        assert stats.count("SeeDoctor") == 4
        assert stats.count("Ghost") == 0
        assert stats.mean_instance_length == pytest.approx(20 / 3)

    def test_equals_the_record_walk_on_random_logs(self):
        from collections import Counter

        logs = random_logs(("A", "B", "C", "D"), cases=25, max_instances=4, max_events=9, seed=5)
        for log in logs:
            stats = LogStatistics.from_log(log)
            assert stats.activity_counts == Counter(r.activity for r in log)
            assert stats.total_records == len(log)
            assert stats.instance_count == len(log.wids)
            assert LogStatistics.from_log(log.columnar()) == stats

    def test_visits_no_record_once_the_columnar_form_exists(self, figure3_log, monkeypatch):
        from repro.columnar import ColumnarLog

        log = Log(figure3_log.records)
        expected = LogStatistics.from_log(log)  # builds log.columnar()

        def visited(self):
            raise AssertionError("statistics walked the records")

        monkeypatch.setattr(Log, "__iter__", visited)
        monkeypatch.setattr(ColumnarLog, "__iter__", visited)
        monkeypatch.setattr(ColumnarLog, "from_log", visited)
        assert LogStatistics.from_log(log) == expected
        assert Optimizer.for_log(log).model.stats == expected


class TestCardinality:
    def test_atoms_are_exact(self, figure3_log):
        model = CostModel(LogStatistics.from_log(figure3_log))
        assert model.cardinality(Atomic("SeeDoctor")) == 4
        assert model.cardinality(~Atomic("SeeDoctor")) == 16

    def test_choice_adds(self, figure3_log):
        model = CostModel(LogStatistics.from_log(figure3_log))
        assert model.cardinality(parse("SeeDoctor | PayTreatment")) == 7

    def test_sequential_estimate_tracks_reality_in_order_of_magnitude(
        self, skewed_log
    ):
        from repro.core.eval.vectorized import VectorizedEngine

        model = CostModel(LogStatistics.from_log(skewed_log))
        pattern = parse("H -> M")
        estimated = model.cardinality(pattern)
        actual = len(VectorizedEngine().evaluate(skewed_log, pattern))
        assert actual / 5 <= estimated <= actual * 5

    def test_plan_cost_grows_with_pattern(self, figure3_log):
        model = CostModel(LogStatistics.from_log(figure3_log))
        small = model.plan_cost(parse("SeeDoctor"))
        large = model.plan_cost(parse("SeeDoctor -> SeeDoctor -> SeeDoctor"))
        assert large > small

    def test_selectivity_validation(self, figure3_log):
        stats = LogStatistics.from_log(figure3_log)
        with pytest.raises(ValueError):
            CostModel(stats, sequential_selectivity=0)
        with pytest.raises(ValueError):
            CostModel(stats, guard_selectivity=2.0)


class TestRewriteRules:
    def test_dedup_choice(self):
        assert dedup_choice(parse("A | A")) == Atomic("A")
        assert dedup_choice(parse("A | B")) is None
        # detects duplicates modulo commutativity of the operands
        assert dedup_choice(parse("(A & B) | (B & A)")) is not None

    def test_factor_choice_left(self):
        rewritten = factor_choice(parse("(A -> B) | (A -> C)"))
        assert rewritten == parse("A -> (B | C)")

    def test_factor_choice_right(self):
        rewritten = factor_choice(parse("(B -> A) | (C -> A)"))
        assert rewritten == parse("(B | C) -> A")

    def test_factor_choice_requires_same_operator(self):
        assert factor_choice(parse("(A -> B) | (A ; C)")) is None

    def test_push_choice_out(self):
        rewritten = push_choice_out(parse("A -> (B | C)"))
        assert rewritten == parse("(A -> B) | (A -> C)")
        rewritten = push_choice_out(parse("(B | C) ; A"))
        assert rewritten == parse("(B ; A) | (C ; A)")

    def test_push_choice_out_not_applicable(self):
        assert push_choice_out(parse("A -> B")) is None
        assert push_choice_out(parse("A | B")) is None

    def test_apply_bottom_up_counts_applications(self):
        pattern = parse("(A | A) -> (B | B)")
        rewritten, count = apply_bottom_up(pattern, dedup_choice)
        assert rewritten == parse("A -> B")
        assert count == 2

    def test_all_rules_preserve_semantics_randomized(self, rng):
        logs = random_logs("ABC", cases=6, seed=31)
        for __ in range(40):
            pattern = random_pattern(rng, "ABC", max_depth=4)
            for rule in REWRITE_RULES:
                rewritten, count = apply_bottom_up(pattern, rule.apply)
                if not count:
                    continue
                for log in logs[:3]:
                    assert reference_incidents(log, rewritten) == (
                        reference_incidents(log, pattern)
                    ), (rule.name, str(pattern))


class TestChainReassociation:
    def test_groups_rare_operand_first(self, skewed_log):
        """On H -> R -> H the DP should join through the rare R rather
        than computing the huge H x H product."""
        model = CostModel(LogStatistics.from_log(skewed_log))
        items, gaps = flatten_chain(parse("H -> R -> H"))
        rebuilt, cost = reassociate_chain(items, gaps, model)
        # left-deep would be (H -> R) -> H: fine; the pathological plan
        # would join H with H first. Verify the DP cost beats that plan.
        bad = model.plan_cost(parse("H -> (R -> H)"))
        good = model.plan_cost(rebuilt)
        assert good <= bad

    def test_single_item_chain(self, figure3_log):
        model = CostModel(LogStatistics.from_log(figure3_log))
        rebuilt, cost = reassociate_chain([Atomic("A")], [], model)
        assert rebuilt == Atomic("A") and cost == 0.0

    def test_reassociation_preserves_semantics(self, rng, skewed_log):
        model = CostModel(LogStatistics.from_log(skewed_log))
        for __ in range(20):
            length = rng.randint(2, 5)
            text = " -> ".join(rng.choice("HRM") for __ in range(length))
            pattern = parse(text)
            items, gaps = flatten_chain(pattern)
            rebuilt, __cost = reassociate_chain(items, gaps, model)
            assert reference_incidents(skewed_log, rebuilt) == (
                reference_incidents(skewed_log, pattern)
            ), text


class TestOptimizer:
    def test_plan_reports_costs_and_transformations(self, skewed_log):
        plan = Optimizer.for_log(skewed_log).optimize(
            parse("(H -> R) | (H -> M)")
        )
        assert plan.optimized_cost <= plan.original_cost
        assert any("factor-choice" in t for t in plan.transformations)
        assert plan.estimated_speedup >= 1.0
        assert "estimated cost" in plan.explain()

    def test_noop_when_nothing_to_do(self, figure3_log):
        plan = Optimizer.for_log(figure3_log).optimize(parse("A -> B"))
        assert plan.optimized == plan.original
        assert "none" in plan.explain()

    def test_optimizer_never_increases_estimated_cost(self, rng, skewed_log):
        optimizer = Optimizer.for_log(skewed_log)
        for __ in range(30):
            pattern = random_pattern(rng, "HRM", max_depth=4)
            plan = optimizer.optimize(pattern)
            assert plan.optimized_cost <= plan.original_cost * 1.0001, str(pattern)

    def test_optimizer_preserves_semantics_randomized(self, rng):
        logs = random_logs("ABC", cases=5, seed=41)
        for log in logs:
            optimizer = Optimizer.for_log(log)
            for __ in range(10):
                pattern = random_pattern(rng, "ABC", max_depth=4)
                plan = optimizer.optimize(pattern)
                assert reference_incidents(log, plan.optimized) == (
                    reference_incidents(log, pattern)
                ), str(pattern)

    def test_real_speedup_on_skewed_chain(self, skewed_log):
        """The optimized plan must actually evaluate faster (fewer pairs
        examined) on the skewed log."""
        from repro.core.eval.naive import NaiveEngine

        # pathological association: every instance pays the full H x H
        # join even though only instance 1 contains an R at all
        pattern = parse("R -> (H -> H)")
        plan = Optimizer.for_log(skewed_log).optimize(pattern)
        assert plan.optimized == parse("(R -> H) -> H")
        engine = NaiveEngine()
        engine.evaluate(skewed_log, pattern)
        pairs_before = engine.last_stats.pairs_examined
        result_after = engine.evaluate(skewed_log, plan.optimized)
        pairs_after = engine.last_stats.pairs_examined
        assert pairs_after < pairs_before / 3
        # and the rewritten plan returns the same incidents
        assert result_after == engine.evaluate(skewed_log, pattern)

    def test_a_planned_run_leaves_no_cyclic_garbage(self):
        """The planner's recursive walks are plain functions, not closures
        that refer to themselves, so a planned run is freed by reference
        counting alone.  As self-referencing closures they left 76 objects
        of this run to the collector, holding the optimizer, its cost
        model and the log's statistics."""
        log = clinic_log(120, seed=42)
        gc.collect()
        gc.disable()
        try:
            Query("(GetRefer -> CheckIn -> SeeDoctor) | (GetRefer ; CheckIn)").run(log)
            assert gc.collect() == 0
        finally:
            gc.enable()
