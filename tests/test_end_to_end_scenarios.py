"""Scenario tests: the paper's motivating analyses run end to end on
simulated populations, asserting the *semantic* outcomes (not just that
code runs)."""

import pytest

from repro.analytics import count_by
from repro.analytics.aggregate import attr_of
from repro.core.query import Query
from repro.workflow import SimulationConfig, WorkflowEngine
from repro.workflow.models import clinic_referral_workflow


@pytest.fixture(scope="module")
def population():
    """200 referrals with a fixed seed — the 'semester of data'."""
    engine = WorkflowEngine(clinic_referral_workflow())
    return engine.run(SimulationConfig(instances=200, seed=20260704))


class TestPaperMotivatingQueries:
    def test_how_many_high_balance_referrals(self, population):
        """'How many students get referrals with balance > $5,000?'"""
        rich = Query("GetRefer[out.balance > 5000]")
        count = rich.count(population)
        # the model draws balances from {500,1000,2000,5000,8000}: only
        # 8000 qualifies, so roughly 1/5 of 200
        assert 15 <= count <= 75
        # and every matching record really satisfies the guard
        for incident in rich.run(population):
            assert incident.records[0].attrs_out["balance"] > 5000

    def test_update_before_reimburse_cohort(self, population):
        """The paper's fraud indicator selects exactly the instances whose
        trace contains an UpdateRefer before a GetReimburse."""
        flagged = set(
            Query("UpdateRefer -> GetReimburse").matching_instances(population)
        )
        manual = set()
        for wid in population.wids:
            names = [r.activity for r in population.instance(wid)]
            if "UpdateRefer" in names and "GetReimburse" in names:
                first_update = names.index("UpdateRefer")
                last_reimburse = len(names) - 1 - names[::-1].index(
                    "GetReimburse"
                )
                if first_update < last_reimburse:
                    manual.add(wid)
        assert flagged == manual

    def test_per_hospital_breakdown_is_complete(self, population):
        incidents = Query("GetRefer").run(population)
        by_hospital = count_by(incidents, attr_of("GetRefer", "hospital"))
        assert sum(by_hospital.values()) == 200
        assert None not in by_hospital

    def test_per_instance_incident_counts_bound(self, population):
        """Each instance has exactly one GetRefer, so 'GetRefer ->
        SeeDoctor' incidents per instance == SeeDoctor visits."""
        counts = count_by(
            Query("GetRefer -> SeeDoctor").run(population), lambda o: o.wid
        )
        for wid, count in counts.items():
            visits = sum(
                1
                for record in population.instance(wid)
                if record.activity == "SeeDoctor"
            )
            assert count == visits

    def test_termination_and_completion_partition(self, population):
        completed = set(
            Query("CompleteRefer").matching_instances(population)
        )
        terminated = set(
            Query("TerminateRefer").matching_instances(population)
        )
        assert completed | terminated == set(population.wids)
        assert not (completed & terminated)

    def test_consecutive_strengthens_sequential_on_real_data(self, population):
        seq = set(Query("SeeDoctor -> PayTreatment").run(population))
        cons = set(Query("SeeDoctor ; PayTreatment").run(population))
        assert cons <= seq
        assert len(cons) < len(seq)

    def test_parallel_subsumes_ordered_disjoint_pairs(self, population):
        seq = set(Query("UpdateRefer -> GetReimburse").run(population))
        par = set(Query("UpdateRefer & GetReimburse").run(population))
        assert seq <= par
