"""Tests for static model analysis and query-satisfiability checking.

The soundness property is the crown jewel: whenever ``may_match`` refutes
a pattern, simulation must never produce an incident for it.  This is
checked exhaustively on small patterns and randomly on larger ones.
"""

import random

import pytest

from repro.core.eval.vectorized import VectorizedEngine
from repro.core.model import END, START
from repro.core.parser import parse
from repro.core.pattern import enumerate_patterns, random_pattern
from repro.workflow.analysis import analyze, explain_mismatch, may_match
from repro.workflow.engine import SimulationConfig, WorkflowEngine
from repro.workflow.models import (
    clinic_referral_workflow,
    loan_approval_workflow,
    order_fulfillment_workflow,
)
from repro.workflow.spec import (
    ActivityDef,
    Loop,
    Maybe,
    Par,
    Sequence,
    Step,
    WorkflowSpec,
    Xor,
)


def spec_of(root):
    return WorkflowSpec("test", root, {}, strict=False)


class TestProfiles:
    def test_sequence_orderings(self):
        profile = analyze(spec_of(Sequence("A", "B", "C")))
        assert ("A", "B") in profile.direct_follows
        assert ("A", "C") in profile.eventually_follows
        assert ("A", "C") not in profile.direct_follows
        assert ("C", "A") not in profile.eventually_follows

    def test_nullable_middle_enables_adjacency(self):
        profile = analyze(spec_of(Sequence("A", Maybe("B"), "C")))
        assert ("A", "C") in profile.direct_follows
        profile = analyze(spec_of(Sequence("A", Step("B"), "C")))
        assert ("A", "C") not in profile.direct_follows

    def test_xor_branches_never_cooccur(self):
        profile = analyze(spec_of(Xor("A", "B")))
        assert ("A", "B") not in profile.cooccur
        assert ("A", "B") not in profile.eventually_follows

    def test_par_allows_both_orders(self):
        profile = analyze(spec_of(Par("A", "B")))
        assert ("A", "B") in profile.direct_follows
        assert ("B", "A") in profile.direct_follows
        assert ("A", "B") in profile.cooccur

    def test_par_shared_activity_is_repeatable(self):
        profile = analyze(spec_of(Par("A", Sequence("A", "B"))))
        assert "A" in profile.repeatable

    def test_loop_makes_body_repeatable_and_self_following(self):
        profile = analyze(spec_of(Loop("A", again=0.5, max_iterations=3)))
        assert "A" in profile.repeatable
        assert ("A", "A") in profile.direct_follows

    def test_single_iteration_loop_is_not_repeatable(self):
        profile = analyze(spec_of(Loop("A", again=0.0, max_iterations=1)))
        assert "A" not in profile.repeatable

    def test_sequence_repeats_shared_activity(self):
        profile = analyze(spec_of(Sequence("A", "B", "A")))
        assert "A" in profile.repeatable
        assert ("A", "A") in profile.eventually_follows

    def test_sentinels_in_profile(self):
        profile = analyze(spec_of(Step("A")))
        assert (START, "A") in profile.direct_follows
        assert ("A", END) in profile.direct_follows
        assert (START, END) in profile.eventually_follows
        assert (START, END) not in profile.direct_follows  # A is mandatory

    def test_fully_optional_body_allows_start_end_adjacency(self):
        profile = analyze(spec_of(Maybe("A")))
        assert (START, END) in profile.direct_follows


class TestMayMatch:
    @pytest.fixture(scope="class")
    def clinic_profile(self):
        return analyze(clinic_referral_workflow())

    def test_feasible_queries_pass(self, clinic_profile):
        for text in (
            "GetRefer -> CheckIn",
            "GetRefer ; CheckIn",
            "UpdateRefer -> GetReimburse",
            "SeeDoctor & PayTreatment",
            "SeeDoctor -> SeeDoctor",
        ):
            assert may_match(clinic_profile, parse(text)), text

    def test_impossible_order_is_refuted(self, clinic_profile):
        assert not may_match(clinic_profile, parse("CheckIn -> GetRefer"))
        reasons = explain_mismatch(clinic_profile, parse("CheckIn -> GetRefer"))
        assert any("never occur after" in r for r in reasons)

    def test_unknown_activity_is_refuted(self, clinic_profile):
        assert not may_match(clinic_profile, parse("Teleport"))

    def test_exclusive_endings_cannot_cooccur(self, clinic_profile):
        assert not may_match(
            clinic_profile, parse("CompleteRefer & TerminateRefer")
        )

    def test_single_occurrence_cannot_parallel_itself(self, clinic_profile):
        assert not may_match(clinic_profile, parse("GetRefer & GetRefer"))
        assert may_match(clinic_profile, parse("SeeDoctor & SeeDoctor"))

    def test_choice_needs_only_one_branch(self, clinic_profile):
        assert may_match(clinic_profile, parse("Teleport | GetRefer"))
        assert not may_match(clinic_profile, parse("Teleport | Warp"))

    def test_adjacency_refutation(self):
        profile = analyze(spec_of(Sequence("A", "B", "C")))
        assert not may_match(profile, parse("A ; C"))
        assert may_match(profile, parse("A -> C"))


class TestSoundness:
    """may_match == False must imply zero incidents on simulated logs."""

    MODELS = [
        clinic_referral_workflow,
        order_fulfillment_workflow,
        loan_approval_workflow,
    ]

    @pytest.mark.parametrize("factory", MODELS)
    def test_exhaustive_small_patterns(self, factory):
        spec = factory()
        profile = analyze(spec)
        log = WorkflowEngine(spec).run(SimulationConfig(instances=60, seed=5))
        engine = VectorizedEngine()
        names = sorted(spec.root.activities())[:5]
        for pattern in enumerate_patterns(names, max_operators=1):
            if not may_match(profile, pattern):
                assert not engine.exists(log, pattern), str(pattern)

    def test_random_patterns(self):
        spec = clinic_referral_workflow()
        profile = analyze(spec)
        log = WorkflowEngine(spec).run(SimulationConfig(instances=80, seed=9))
        engine = VectorizedEngine()
        rng = random.Random(13)
        names = sorted(spec.root.activities())
        refuted = 0
        for __ in range(200):
            pattern = random_pattern(rng, names, max_depth=3,
                                     allow_negation=False)
            if not may_match(profile, pattern):
                refuted += 1
                assert not engine.exists(log, pattern), str(pattern)
        assert refuted > 5  # the check actually refutes something
