"""Edge-case tests across the core: unusual but legal inputs, error
paths, and boundary conditions not covered by the mainline suites."""

import pytest

from repro.core.errors import (
    BudgetExceededError,
    LogValidationError,
    OptimizerError,
    PatternSyntaxError,
)
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.incident import reference_incidents
from repro.core.model import END, START, Log, LogRecord
from repro.core.parser import parse, tokenize
from repro.core.pattern import Atomic, parallel
from repro.core.options import EngineOptions
from repro.core.query import Query


class TestMinimalLogs:
    def test_single_record_log(self):
        log = Log([LogRecord(lsn=1, wid=1, is_lsn=1, activity=START)])
        assert Query("START").count(log) == 1
        assert Query("!START").count(log) == 0
        assert not Query("START -> START").exists(log)

    def test_sentinels_are_queryable(self):
        log = Log.from_traces([["A"]])
        assert Query("START -> END").count(log) == 1
        assert Query("START ; A ; END").count(log) == 1

    def test_negation_spans_sentinels(self):
        log = Log.from_traces([["A"]])
        # ¬A matches START and END (Definition 4: Atomic(l) != t, no carve-out)
        assert Query("!A", EngineOptions(optimize=False)).count(log) == 2

    def test_hundreds_of_tiny_instances(self):
        log = Log.from_traces({w: ["A"] for w in range(1, 301)})
        assert Query("A").count(log) == 300
        assert Query("A -> A").count(log) == 0  # never across instances


class TestPatternEdges:
    def test_deeply_nested_pattern_parses_and_evaluates(self):
        text = "A"
        for __ in range(30):
            text = f"({text} -> A)"
        pattern = parse(text)
        assert pattern.size == 31
        log = Log.from_traces([["A"] * 5])
        # 31 leaves over 5 records: unsatisfiable but must not blow up
        assert not VectorizedEngine().exists(log, pattern)

    def test_pattern_with_many_choice_branches(self):
        pattern = parse(" | ".join(f"A{i}" for i in range(30)))
        log = Log.from_traces([["A7", "A23"]])
        assert Query(pattern).count(log) == 2

    def test_same_activity_all_operators(self):
        log = Log.from_traces([["A", "A", "A"]])
        assert Query("A ; A").count(log) == 2
        assert Query("A -> A").count(log) == 3
        assert Query("A | A").count(log) == 3
        assert Query("A & A").count(log) == 3  # unordered pairs as sets

    def test_whitespace_only_names_rejected(self):
        with pytest.raises(PatternSyntaxError):
            parse('""')

    def test_guard_on_quoted_name(self):
        pattern = parse('"Check In"[out.x > 1]')
        assert pattern.name == "Check In"

    def test_unicode_sequential_alias(self):
        assert parse("A » B") == parse("A -> B")
        assert parse("A ⊳ B") == parse("A -> B")

    def test_tokenizer_rejects_stray_bracket(self):
        with pytest.raises(PatternSyntaxError):
            list(tokenize("[x > 1]"))


class TestDslEdges:
    def test_variadic_parallel_order_independent_counts(self):
        log = Log.from_traces([["A", "B", "C"]])
        p1 = parallel("A", "B", "C")
        p2 = parallel("C", "A", "B")
        assert reference_incidents(log, p1) == reference_incidents(log, p2)

    def test_neg_and_act_compose(self):
        log = Log.from_traces([["A", "B"]])
        assert reference_incidents(log, ~Atomic("A") >> Atomic("B")).lsn_sets() == {
            frozenset({1, 3})  # START -> B (l1 is START, l3 is B)
        }


class TestBudgetEdges:
    def test_budget_exactly_at_cap_is_fine(self):
        log = Log.from_traces([["A"] * 10])
        engine = VectorizedEngine(max_incidents=10)
        assert len(engine.evaluate(log, parse("A"))) == 10

    def test_budget_one_below_output_raises(self):
        log = Log.from_traces([["A"] * 10])
        engine = VectorizedEngine(max_incidents=9)
        with pytest.raises(BudgetExceededError):
            engine.evaluate(log, parse("A"))


class TestFromTuplesEdges:
    def test_row_length_validation(self):
        with pytest.raises(LogValidationError):
            Log.from_tuples([(1, 1, 1)])
        with pytest.raises(LogValidationError):
            Log.from_tuples([(1, 1, 1, START, {}, {}, "extra")])

    def test_accepts_lists_as_rows(self):
        log = Log.from_tuples([[1, 1, 1, START], [2, 1, 2, "A", {"x": 1}]])
        assert log.record(2).attrs_in == {"x": 1}


class TestOptimizerEdges:
    def test_reassociate_chain_length_mismatch(self, figure3_log):
        from repro.core.optimizer.cost import CostModel, LogStatistics
        from repro.core.optimizer.planner import reassociate_chain

        model = CostModel(LogStatistics.from_log(figure3_log))
        with pytest.raises(OptimizerError):
            reassociate_chain([Atomic("A")], [parse("A -> B")], model)

    def test_optimizing_single_atom_is_identity(self, figure3_log):
        from repro.core.optimizer import Optimizer

        plan = Optimizer.for_log(figure3_log).optimize(Atomic("SeeDoctor"))
        assert plan.optimized == Atomic("SeeDoctor")
        assert plan.estimated_speedup == pytest.approx(1.0)

    def test_estimated_speedup_with_zero_cost(self):
        from repro.core.optimizer.planner import OptimizedPlan

        plan = OptimizedPlan(Atomic("A"), Atomic("A"), 0.0, 0.0)
        assert plan.estimated_speedup == 1.0


class TestEngineDefaults:
    def test_engine_repr(self):
        assert "max_incidents=7" in repr(NaiveEngine(max_incidents=7))

    def test_naive_exists_uses_default_materialisation(self, figure3_log):
        engine = NaiveEngine()
        assert engine.exists(figure3_log, parse("SeeDoctor"))
        assert not engine.exists(figure3_log, parse("Ghost"))

    def test_naive_count_matches_len(self, figure3_log):
        engine = NaiveEngine()
        assert engine.count(figure3_log, parse("SeeDoctor")) == 4
