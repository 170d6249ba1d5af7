"""Machine-independent regression pins for EXPERIMENTS.md.

Every experiment row whose claim can be checked without wall-clock
timing is asserted here, so `pytest tests/` alone certifies the
reproduction's substance (the timing *shapes* live in benchmarks/).
"""

import math

import pytest

from repro.analytics import attr_of, count_by
from repro.baselines.automaton import AutomatonBaseline, supports
from repro.baselines.sql import SqlBaseline
from repro.core.errors import EvaluationError
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.model import Log
from repro.core.optimizer import Optimizer
from repro.core.parser import parse
from repro.core.query import Query
from repro.generator.synthetic import worst_case_log


class TestF1EtlPipeline:
    def test_sql_route_agrees_on_temporal_fragment(self, figure3_log):
        pattern = parse("UpdateRefer -> GetReimburse")
        assert SqlBaseline().evaluate(figure3_log, pattern) == (
            VectorizedEngine().evaluate(figure3_log, pattern)
        )

    def test_sql_route_cannot_answer_attribute_queries(self, figure3_log):
        with pytest.raises(EvaluationError):
            SqlBaseline().evaluate(
                figure3_log, parse("GetRefer[out.balance > 500]")
            )

    def test_the_introductions_aggregate_counts_incidents_per_value(self, figure3_log):
        """'How many referrals with balance >= 1000, per hospital?' — asked
        of the log directly, with the attributes the ETL route drops."""
        incidents = Query("GetRefer[out.balance >= 1000]").run(figure3_log)
        per_hospital = count_by(incidents, attr_of("GetRefer", "hospital"))
        assert per_hospital == {"Public Hospital": 1, "People Hospital": 1}


class TestF3F4PaperArtifacts:
    def test_figure3_fixture_is_wellformed_and_sized(self, figure3_log):
        figure3_log.validate()
        assert len(figure3_log) == 20 and figure3_log.wids == (1, 2, 3)

    def test_example3_incident_sets(self, figure3_log):
        assert Query("UpdateRefer -> GetReimburse").run(
            figure3_log
        ).lsn_sets() == {frozenset({14, 20})}
        assert Query(
            "SeeDoctor -> (UpdateRefer -> GetReimburse)"
        ).run(figure3_log).lsn_sets() == {frozenset({13, 14, 20})}


class TestL1OperationCounts:
    def test_pairwise_operators_examine_n1_n2_pairs(self):
        log = Log.from_traces([["A"] * 9 + ["B"] * 7])
        engine = NaiveEngine()
        for op in ("->", ";", "&"):
            engine.evaluate(log, parse(f"A {op} B"))
            assert engine.last_stats.pairs_examined == 9 * 7, op

    def test_output_upper_bound_n1_n2(self):
        log = Log.from_traces([["A"] * 9 + ["B"] * 7])
        for op in ("->", ";", "&", "|"):
            result = NaiveEngine().evaluate(log, parse(f"A {op} B"))
            assert len(result) <= 9 * 7 if op != "|" else 16


class TestT1WorstCase:
    @pytest.mark.parametrize("m,k", [(10, 1), (10, 2), (12, 3)])
    def test_parallel_chain_output_is_m_choose_k1(self, m, k):
        from repro.core.pattern import parallel

        log = worst_case_log(m)
        result = VectorizedEngine().evaluate(log, parallel(*["t"] * (k + 1)))
        assert len(result) == math.comb(m, k + 1)


class TestT2T5OptimizerSubstance:
    def test_reassociation_reduces_examined_pairs_3x(self):
        traces = [(["R"] if w == 1 else []) + ["H"] * 12 + ["M"] * 3
                  for w in range(1, 11)]
        log = Log.from_traces(traces)
        pattern = parse("R -> (H -> H)")
        engine = NaiveEngine()
        engine.evaluate(log, pattern)
        before = engine.last_stats.pairs_examined
        plan = Optimizer.for_log(log).optimize(pattern)
        engine.evaluate(log, plan.optimized)
        after = engine.last_stats.pairs_examined
        assert before / max(after, 1) >= 3.0

    def test_factoring_fires_on_common_operand_choices(self, figure3_log):
        plan = Optimizer.for_log(figure3_log).optimize(
            parse("(SeeDoctor -> PayTreatment) | (SeeDoctor -> UpdateRefer)")
        )
        assert plan.optimized == parse(
            "SeeDoctor -> (PayTreatment | UpdateRefer)"
        )


class TestB1ExpressivenessGaps:
    def test_automaton_cannot_express_parallel(self):
        assert not supports(parse("A & B"))
        with pytest.raises(EvaluationError):
            AutomatonBaseline().evaluate(
                Log.from_traces([["A", "B"]]), parse("A & B")
            )

    def test_all_four_systems_agree_where_applicable(self, figure3_log):
        for text in ("SeeDoctor ; PayTreatment",
                     "GetRefer -> (CompleteRefer | UpdateRefer)"):
            pattern = parse(text)
            expected = VectorizedEngine().evaluate(figure3_log, pattern)
            assert NaiveEngine().evaluate(figure3_log, pattern) == expected
            assert SqlBaseline().evaluate(figure3_log, pattern) == expected
            assert AutomatonBaseline().evaluate(figure3_log, pattern) == expected


class TestB2IndexClaims:
    def test_pair_growth_tracks_instance_count(self):
        engine = VectorizedEngine()
        pattern = parse("A -> B")
        pairs = {}
        for n in (10, 40):
            log = Log.from_traces([["A", "X", "B"]] * n)
            engine.evaluate(log, pattern)
            pairs[n] = engine.last_stats.pairs_examined
        assert pairs[40] == 4 * pairs[10]  # exactly linear per instance


class TestB4StreamingEquivalence:
    def test_streamed_state_equals_batch(self, figure3_log):
        from repro.core.eval.incremental import IncrementalEvaluator

        pattern = parse("SeeDoctor -> PayTreatment")
        streaming = IncrementalEvaluator(pattern)
        streaming.extend(figure3_log)
        assert streaming.incidents() == VectorizedEngine().evaluate(
            figure3_log, pattern
        )


class TestB6CountingClaims:
    def test_count_equals_materialised_size_on_quadratic_case(self):
        log = Log.from_traces([["A"] * 60 + ["B"] * 60])
        assert VectorizedEngine().count(log, parse("A -> B")) == 3600

    def test_count_never_materialises(self):
        # a budgeted engine would refuse; the DP cannot hit the budget
        log = Log.from_traces([["A"] * 150 + ["B"] * 150])
        engine = VectorizedEngine(max_incidents=10)
        assert engine.count(log, parse("A -> B")) == 22_500
