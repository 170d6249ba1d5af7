"""Unit tests for workflow specifications (blocks, gateways, validation)."""

import random

import pytest

from repro.core.errors import WorkflowDefinitionError
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


def unfold(block, seed=0):
    return list(block.unfold(random.Random(seed)))


class TestBlocks:
    def test_step_yields_its_activity(self):
        assert unfold(Step("A")) == ["A"]

    def test_sequence_concatenates(self):
        assert unfold(Sequence("A", "B", "C")) == ["A", "B", "C"]

    def test_sequence_coerces_strings(self):
        block = Sequence("A", Step("B"))
        assert unfold(block) == ["A", "B"]

    def test_sequence_requires_blocks(self):
        with pytest.raises(WorkflowDefinitionError):
            Sequence()

    def test_xor_picks_exactly_one_branch(self):
        block = Xor("A", "B")
        for seed in range(20):
            assert unfold(block, seed) in (["A"], ["B"])

    def test_xor_weights_bias_selection(self):
        block = Xor("A", "B", weights=(0.0, 1.0))
        for seed in range(20):
            assert unfold(block, seed) == ["B"]

    def test_xor_validation(self):
        with pytest.raises(WorkflowDefinitionError):
            Xor("A")
        with pytest.raises(WorkflowDefinitionError):
            Xor("A", "B", weights=(1.0,))
        with pytest.raises(WorkflowDefinitionError):
            Xor("A", "B", weights=(-1.0, 1.0))
        with pytest.raises(WorkflowDefinitionError):
            Xor("A", "B", weights=(0.0, 0.0))

    def test_par_interleaving_preserves_branch_order(self):
        block = Par(Sequence("A1", "A2", "A3"), Sequence("B1", "B2"))
        for seed in range(30):
            run = unfold(block, seed)
            assert sorted(run) == ["A1", "A2", "A3", "B1", "B2"]
            a_positions = [run.index(a) for a in ("A1", "A2", "A3")]
            b_positions = [run.index(b) for b in ("B1", "B2")]
            assert a_positions == sorted(a_positions)
            assert b_positions == sorted(b_positions)

    def test_par_actually_interleaves_somewhere(self):
        block = Par(Sequence("A1", "A2"), Sequence("B1", "B2"))
        runs = {tuple(unfold(block, seed)) for seed in range(50)}
        assert len(runs) > 1  # more than one shuffle observed

    def test_par_needs_two_branches(self):
        with pytest.raises(WorkflowDefinitionError):
            Par("A")

    def test_loop_runs_at_least_once_and_respects_bound(self):
        block = Loop("A", again=0.99, max_iterations=4)
        for seed in range(30):
            count = len(unfold(block, seed))
            assert 1 <= count <= 4

    def test_loop_with_zero_continuation_runs_once(self):
        block = Loop("A", again=0.0)
        for seed in range(10):
            assert unfold(block, seed) == ["A"]

    def test_loop_validation(self):
        with pytest.raises(WorkflowDefinitionError):
            Loop("A", again=1.0)
        with pytest.raises(WorkflowDefinitionError):
            Loop("A", max_iterations=0)

    def test_maybe_includes_or_skips(self):
        runs = {tuple(unfold(Maybe("A", 0.5), seed)) for seed in range(30)}
        assert runs == {(), ("A",)}

    def test_maybe_validation(self):
        with pytest.raises(WorkflowDefinitionError):
            Maybe("A", prob=1.5)

    def test_activities_reachable(self):
        block = Sequence("A", Xor("B", Par("C", "D")), Maybe(Loop("E")))
        assert block.activities() == {"A", "B", "C", "D", "E"}

    def test_invalid_block_type_rejected(self):
        with pytest.raises(WorkflowDefinitionError):
            Sequence(42)  # type: ignore[arg-type]


class TestWorkflowSpec:
    def test_strict_spec_requires_declarations(self):
        with pytest.raises(WorkflowDefinitionError) as excinfo:
            WorkflowSpec("w", Sequence("A", "B"), {"A": ActivityDef("A")})
        assert "B" in str(excinfo.value)

    def test_non_strict_spec_fills_empty_definitions(self):
        spec = WorkflowSpec("w", Sequence("A"), {}, strict=False)
        definition = spec.definition("A")
        assert definition.reads == () and definition.writes == ()

    def test_strict_lookup_of_undeclared_activity_fails(self):
        spec = WorkflowSpec.from_definitions("w", Step("A"), [ActivityDef("A")])
        with pytest.raises(WorkflowDefinitionError):
            spec.definition("Ghost")

    def test_reserved_activity_names_rejected(self):
        with pytest.raises(WorkflowDefinitionError):
            ActivityDef("START")
        with pytest.raises(WorkflowDefinitionError):
            ActivityDef("END")

