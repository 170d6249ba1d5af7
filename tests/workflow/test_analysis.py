"""Tests for deciding whether a pattern can match some run of a spec.

The soundness property is the crown jewel: whenever
``PatternProver.spec_witness`` refutes a pattern, simulation must never
produce an incident for it.  This is checked exhaustively on small
patterns and randomly on larger ones.  Exactness against an enumeration
of every run lives in ``tests/analysis/test_spec_witness.py``.
"""

import random

import pytest

from repro.analysis import default_prover
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.incident import reference_incidents
from repro.core.parser import parse
from repro.core.pattern import enumerate_patterns, random_pattern
from repro.workflow.engine import SimulationConfig, WorkflowEngine
from repro.workflow.models import (
    clinic_referral_workflow,
    loan_approval_workflow,
    order_fulfillment_workflow,
)
from repro.workflow.spec import Sequence, WorkflowSpec


def spec_of(root):
    return WorkflowSpec("test", root, {}, strict=False)


def refuted(spec, pattern) -> bool:
    if isinstance(pattern, str):
        pattern = parse(pattern)
    return default_prover().spec_witness(spec, pattern) is None


class TestMayMatch:
    @pytest.fixture(scope="class")
    def clinic(self):
        return clinic_referral_workflow()

    def test_feasible_queries_pass(self, clinic):
        for text in (
            "GetRefer -> CheckIn",
            "GetRefer ; CheckIn",
            "UpdateRefer -> GetReimburse",
            "SeeDoctor & PayTreatment",
            "SeeDoctor -> SeeDoctor",
        ):
            assert not refuted(clinic, text), text

    def test_impossible_order_is_refuted(self, clinic):
        assert refuted(clinic, "CheckIn -> GetRefer")
        # the feasible order comes with a run that holds an incident
        pattern = parse("GetRefer -> CheckIn")
        log, incident = default_prover().spec_witness(clinic, pattern)
        assert incident in reference_incidents(log, pattern)

    def test_unknown_activity_is_refuted(self, clinic):
        assert refuted(clinic, "Teleport")

    def test_exclusive_endings_cannot_cooccur(self, clinic):
        assert refuted(clinic, "CompleteRefer & TerminateRefer")

    def test_single_occurrence_cannot_parallel_itself(self, clinic):
        assert refuted(clinic, "GetRefer & GetRefer")
        assert not refuted(clinic, "SeeDoctor & SeeDoctor")

    def test_choice_needs_only_one_branch(self, clinic):
        assert not refuted(clinic, "Teleport | GetRefer")
        assert refuted(clinic, "Teleport | Warp")

    def test_adjacency_refutation(self):
        spec = spec_of(Sequence("A", "B", "C"))
        assert refuted(spec, "A ; C")
        assert not refuted(spec, "A -> C")


class TestSoundness:
    """A refutation must imply zero incidents on simulated logs."""

    MODELS = [
        clinic_referral_workflow,
        order_fulfillment_workflow,
        loan_approval_workflow,
    ]

    @pytest.mark.parametrize("factory", MODELS)
    def test_exhaustive_small_patterns(self, factory):
        spec = factory()
        log = WorkflowEngine(spec).run(SimulationConfig(instances=60, seed=5))
        engine = VectorizedEngine()
        names = sorted(spec.root.activities())[:5]
        for pattern in enumerate_patterns(names, max_operators=1):
            if refuted(spec, pattern):
                assert not engine.exists(log, pattern), str(pattern)

    def test_random_patterns(self):
        spec = clinic_referral_workflow()
        log = WorkflowEngine(spec).run(SimulationConfig(instances=80, seed=9))
        engine = VectorizedEngine()
        rng = random.Random(13)
        names = sorted(spec.root.activities())
        count = 0
        for __ in range(200):
            pattern = random_pattern(rng, names, max_depth=3,
                                     allow_negation=False)
            if refuted(spec, pattern):
                count += 1
                assert not engine.exists(log, pattern), str(pattern)
        assert count > 5  # the check actually refutes something
