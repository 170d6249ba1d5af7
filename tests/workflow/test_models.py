"""Tests of the three bundled workflow models, including the Figure 3
shape reproduction for the clinic process (experiment F3)."""

import pytest

from repro.core.model import END, START
from repro.core.query import Query
from repro.workflow.engine import SimulationConfig, WorkflowEngine
from repro.workflow.models import (
    clinic_referral_workflow,
    loan_approval_workflow,
    order_fulfillment_workflow,
)
from repro.workflow.models.clinic import CLINIC_ACTIVITIES, HOSPITALS
from tests.support.workloads import records_of


class TestClinicModel:
    """Experiment F3: simulated logs must have the Figure 3 schema."""

    def test_activity_vocabulary_matches_figure3(self, clinic_log):
        observed = clinic_log.activities - {START, END}
        assert observed <= set(CLINIC_ACTIVITIES)
        # the core path activities always occur
        assert {"GetRefer", "CheckIn", "SeeDoctor"} <= observed

    def test_every_instance_follows_the_referral_protocol(self, clinic_log):
        for wid in clinic_log.wids:
            names = [r.activity for r in clinic_log.instance(wid)]
            assert names[0] == START
            assert names[1] == "GetRefer"
            assert names[2] == "CheckIn"
            assert names[-1] == END
            assert names[-2] in ("CompleteRefer", "TerminateRefer")

    def test_getrefer_writes_figure3_attributes(self, clinic_log):
        for record in records_of(clinic_log, "GetRefer"):
            assert set(record.attrs_out) == {
                "hospital", "referId", "referState", "balance",
            }
            assert record.attrs_out["hospital"] in HOSPITALS
            assert record.attrs_out["referState"] == "start"
            assert record.attrs_out["balance"] > 0

    def test_checkin_reads_referral_and_activates_it(self, clinic_log):
        for record in records_of(clinic_log, "CheckIn"):
            assert record.attrs_in["referState"] == "start"
            assert record.attrs_out == {"referState": "active"}

    def test_receipts_are_numbered_like_figure3(self, clinic_log):
        for wid in clinic_log.wids:
            receipt_writes = [
                key
                for record in clinic_log.instance(wid)
                if record.activity == "PayTreatment"
                for key in record.attrs_out
                if key.startswith("receipt") and key.endswith("State")
            ]
            expected = [f"receipt{i + 1}State" for i in range(len(receipt_writes))]
            assert receipt_writes == expected

    def test_reimbursement_caps_at_balance(self, clinic_log):
        for record in records_of(clinic_log, "GetReimburse"):
            amount = record.attrs_out["amount"]
            reimburse = record.attrs_out["reimburse"]
            balance_before = record.attrs_in.get("balance", 0)
            assert reimburse == min(amount, balance_before)
            assert record.attrs_out["balance"] == balance_before - reimburse

    def test_fraud_query_finds_updated_referrals(self, clinic_log):
        incidents = Query("UpdateRefer -> GetReimburse").run(clinic_log)
        assert incidents  # update_probability makes these near-certain
        for incident in incidents:
            names = tuple(r.activity for r in incident)
            assert names == ("UpdateRefer", "GetReimburse")

    def test_update_probability_zero_removes_updates(self):
        spec = clinic_referral_workflow(update_probability=0.0)
        log = WorkflowEngine(spec).run(instances=30, seed=11)
        assert "UpdateRefer" not in log.activities

    def test_terminate_probability_one_always_terminates(self):
        spec = clinic_referral_workflow(terminate_probability=1.0)
        log = WorkflowEngine(spec).run(instances=10, seed=3)
        assert "GetReimburse" not in log.activities
        assert len(records_of(log, "TerminateRefer")) == 10


class TestOrderModel:
    def test_vocabulary(self, order_log):
        assert {"PlaceOrder", "Deliver"} <= order_log.activities

    def test_pick_and_pack_run_in_parallel(self, order_log):
        # both interleavings must occur across instances
        pick_first = Query("PickItems -> PackItems")
        pack_first = Query("PackItems -> PickItems")
        assert pick_first.exists(order_log)
        assert pack_first.exists(order_log)

    def test_label_always_after_pack(self, order_log):
        assert not Query("PrintLabel -> PackItems").exists(order_log)

    def test_exactly_one_shipping_choice(self, order_log):
        for wid in order_log.wids:
            names = [r.activity for r in order_log.instance(wid)]
            assert (names.count("ShipExpress") + names.count("ShipStandard")) == 1

    def test_refund_only_after_return(self, order_log):
        for wid in order_log.wids:
            names = [r.activity for r in order_log.instance(wid)]
            if "Refund" in names:
                assert names.index("RequestReturn") < names.index("Refund")


class TestLoanModel:
    def test_vocabulary(self, loan_log):
        assert {"SubmitApplication", "CreditCheck"} <= loan_log.activities

    def test_credit_check_always_before_decision(self, loan_log):
        for wid in loan_log.wids:
            names = [r.activity for r in loan_log.instance(wid)]
            decisions = [
                n for n in names if n in ("AutoApprove", "ManualReview")
            ]
            assert len(decisions) == 1
            assert names.index("CreditCheck") < names.index(decisions[0])

    def test_documents_loop_is_paired(self, loan_log):
        for wid in loan_log.wids:
            names = [r.activity for r in loan_log.instance(wid)]
            assert names.count("RequestDocuments") == names.count(
                "ReceiveDocuments"
            )

    def test_credit_score_in_valid_range(self, loan_log):
        for record in records_of(loan_log, "CreditCheck"):
            assert 300 <= record.attrs_out["creditScore"] <= 850

    def test_auto_approve_probability_extremes(self):
        all_auto = WorkflowEngine(
            loan_approval_workflow(auto_approve_probability=1.0)
        ).run(instances=10, seed=5)
        assert "ManualReview" not in all_auto.activities
        none_auto = WorkflowEngine(
            loan_approval_workflow(auto_approve_probability=0.0)
        ).run(instances=10, seed=5)
        assert "AutoApprove" not in none_auto.activities
