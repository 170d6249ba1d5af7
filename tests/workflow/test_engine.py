"""Unit tests for the workflow execution engine."""

import pytest

from repro.core.errors import WorkflowRuntimeError
from repro.core.model import END, START
from repro.workflow.engine import SimulationConfig, WorkflowEngine
from repro.workflow.spec import ActivityDef, Sequence, Step, WorkflowSpec


def tiny_spec(effect=None, reads=(), writes=()):
    return WorkflowSpec.from_definitions(
        "tiny",
        Sequence("A", "B"),
        [
            ActivityDef("A", writes=writes, effect=effect or (lambda s, r: {})),
            ActivityDef("B", reads=reads),
        ],
        initial_attrs=lambda: {"seeded": True},
    )


class TestBasicExecution:
    def test_produces_well_formed_logs(self, clinic_log):
        clinic_log.validate()

    def test_every_instance_starts_with_start(self, clinic_log):
        for wid in clinic_log.wids:
            assert clinic_log.instance(wid)[0].activity == START

    def test_complete_instances_end_with_end(self, clinic_log):
        for wid in clinic_log.wids:
            assert clinic_log.instance(wid)[-1].activity == END

    def test_deterministic_given_seed(self):
        engine = WorkflowEngine(tiny_spec())
        a = engine.run(instances=5, seed=42)
        b = WorkflowEngine(tiny_spec()).run(instances=5, seed=42)
        assert a == b

    def test_different_seeds_differ(self, clinic_log):
        from repro.workflow.models import clinic_referral_workflow

        other = WorkflowEngine(clinic_referral_workflow()).run(
            instances=40, seed=4321
        )
        assert other != clinic_log

    def test_requested_instance_count(self):
        log = WorkflowEngine(tiny_spec()).run(instances=7, seed=0)
        assert log.wids == tuple(range(1, 8))

    def test_kwargs_shorthand_and_config_conflict(self):
        engine = WorkflowEngine(tiny_spec())
        with pytest.raises(TypeError):
            engine.run(SimulationConfig(instances=2), instances=3)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"instances": 0},
        {"arrival_stagger": -1},
        {"complete_probability": 1.5},
    ])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)


class TestArrivalAndCompletion:
    def test_stagger_spreads_start_records(self):
        log = WorkflowEngine(tiny_spec()).run(
            SimulationConfig(instances=5, seed=0, arrival_stagger=3)
        )
        start_lsns = [r.lsn for r in log if r.activity == START]
        assert start_lsns != list(range(1, 6))  # not all up front

    def test_incomplete_instances_have_no_end(self):
        log = WorkflowEngine(tiny_spec()).run(
            SimulationConfig(instances=30, seed=1, complete_probability=0.5)
        )
        log.validate()
        complete = sum(log.is_complete(w) for w in log.wids)
        assert 0 < complete < 30

    def test_max_steps_guard(self):
        with pytest.raises(WorkflowRuntimeError):
            WorkflowEngine(tiny_spec()).run(
                SimulationConfig(instances=50, seed=0, max_steps=10)
            )


class TestAttributeEffects:
    def test_effect_outputs_recorded_in_attrs_out(self):
        spec = tiny_spec(effect=lambda s, r: {"x": 41 + 1}, writes=("x",))
        log = WorkflowEngine(spec).run(instances=1, seed=0)
        record = next(r for r in log if r.activity == "A")
        assert record.attrs_out == {"x": 42}

    def test_reads_capture_current_state(self):
        spec = tiny_spec(
            effect=lambda s, r: {"x": 7}, writes=("x",), reads=("x", "seeded")
        )
        log = WorkflowEngine(spec).run(instances=1, seed=0)
        record = next(r for r in log if r.activity == "B")
        assert record.attrs_in == {"x": 7, "seeded": True}

    def test_reads_of_unset_attributes_are_omitted(self):
        spec = tiny_spec(reads=("missing",))
        log = WorkflowEngine(spec).run(instances=1, seed=0)
        record = next(r for r in log if r.activity == "B")
        assert "missing" not in record.attrs_in

    def test_undeclared_writes_are_rejected(self):
        spec = tiny_spec(effect=lambda s, r: {"rogue": 1}, writes=("x",))
        with pytest.raises(WorkflowRuntimeError):
            WorkflowEngine(spec).run(instances=1, seed=0)

    def test_sentinel_records_have_empty_maps(self, clinic_log):
        for record in clinic_log:
            if record.is_sentinel:
                assert not record.attrs_in and not record.attrs_out

