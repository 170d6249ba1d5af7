"""End-to-end integration tests across subsystems.

Each test walks a realistic multi-subsystem pipeline: simulate → persist
→ reload → query → aggregate/monitor, asserting the results stay
identical at every representation change.
"""

import pytest

from repro.analysis import default_prover
from repro.analytics import LiveMonitor, clinic_rules, count_by
from repro.analytics.aggregate import attr_of
from repro.cli import main
from repro.core.eval.incremental import IncrementalEvaluator
from repro.core.parser import parse
from repro.core.options import EngineOptions
from repro.core.query import Query
from repro.logstore import (
    read_csv,
    read_jsonl,
    read_xes,
    write_csv,
    write_jsonl,
    write_xes,
)
from repro.workflow import SimulationConfig, WorkflowEngine
from repro.workflow.models import clinic_referral_workflow

FRAUD = "UpdateRefer -> GetReimburse"


class TestPipeline:
    def test_simulate_persist_reload_query(self, tmp_path, clinic_log):
        """The same query answers identically across every storage
        representation."""
        expected = Query(FRAUD).run(clinic_log).lsn_sets()

        jsonl = tmp_path / "log.jsonl"
        write_jsonl(clinic_log, jsonl)
        assert Query(FRAUD).run(read_jsonl(jsonl)).lsn_sets() == expected

        csv_path = tmp_path / "log.csv"
        write_csv(clinic_log, csv_path)
        assert Query(FRAUD).run(read_csv(csv_path)).lsn_sets() == expected

        xes = tmp_path / "log.xes"
        write_xes(clinic_log, xes)
        assert Query(FRAUD).run(read_xes(xes)).lsn_sets() == expected

    def test_cli_agrees_with_api(self, tmp_path, capsys):
        out = tmp_path / "cli.jsonl"
        assert main(["generate", "--model", "clinic", "--instances", "25",
                     "--seed", "9", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["query", "--log", str(out), "--pattern", FRAUD,
                     "--mode", "count"]) == 0
        cli_count = int(capsys.readouterr().out.strip())
        api_count = Query(FRAUD).count(read_jsonl(out))
        assert cli_count == api_count

    def test_batch_streaming_and_monitor_agree(self, clinic_log):
        batch = Query(FRAUD).run(clinic_log)

        streamed = IncrementalEvaluator(parse(FRAUD))
        streamed.extend(clinic_log)
        assert streamed.incidents() == batch

        monitor = LiveMonitor(clinic_rules())
        for record in clinic_log:
            monitor.observe(record)
        live_wids = monitor.offending_instances().get(
            "update-before-reimburse", ()
        )
        assert live_wids == batch.wids()

    def test_static_analysis_agrees_with_simulation(self):
        """Queries no run of the spec can match must be empty on any
        simulated log; feasible core-path queries must match."""
        spec = clinic_referral_workflow()
        log = WorkflowEngine(spec).run(SimulationConfig(instances=50, seed=3))
        feasible = parse("GetRefer ; CheckIn")
        infeasible = parse("CheckIn ; GetRefer")
        assert default_prover().spec_witness(spec, feasible) is not None
        assert Query(feasible).exists(log)
        assert default_prover().spec_witness(spec, infeasible) is None
        assert not Query(infeasible).exists(log)

    def test_aggregation_pipeline(self, clinic_log):
        """Mine incidents, aggregate by source attribute, reconcile with a
        guarded-query count."""
        incidents = Query("GetRefer -> GetReimburse").run(clinic_log)
        by_hospital = count_by(incidents, attr_of("GetRefer", "hospital"))
        assert sum(by_hospital.values()) == len(incidents)

        rich = Query("GetRefer[out.balance >= 5000] -> GetReimburse")
        manual = sum(
            1
            for incident in incidents
            if incident.records[0].attrs_out.get("balance", 0) >= 5000
        )
        assert rich.count(clinic_log) == manual

    def test_engines_and_count_paths_agree_end_to_end(self, clinic_log):
        for text in (FRAUD, "SeeDoctor ; PayTreatment",
                     "GetRefer ->[4] SeeDoctor"):
            materialised = len(Query(text, EngineOptions(engine="naive")).run(clinic_log))
            counted = Query(text).count(clinic_log)
            assert counted == materialised, text
