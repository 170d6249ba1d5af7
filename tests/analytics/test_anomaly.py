"""Unit tests for the anomaly rule library."""

import pytest

from repro.analytics.anomaly import (
    AnomalyRule,
    RuleSet,
    clinic_rules,
    loan_rules,
    order_rules,
)
from repro.core.model import Log
from repro.core.parser import parse


class TestAnomalyRule:
    def test_from_text(self):
        rule = AnomalyRule.from_text("r", "A -> B", "desc", "critical")
        assert rule.pattern == parse("A -> B")

    def test_severity_validation(self):
        with pytest.raises(ValueError):
            AnomalyRule("r", parse("A"), "desc", severity="mild")


class TestRuleSet:
    def test_unique_names_enforced(self):
        rule = AnomalyRule.from_text("r", "A", "d")
        with pytest.raises(ValueError):
            RuleSet([rule, rule])
        with pytest.raises(ValueError):
            RuleSet([rule, AnomalyRule.from_text("r", "B", "d")])

    def test_run_produces_findings_for_every_rule(self, figure3_log):
        ruleset = clinic_rules()
        report = ruleset.run(figure3_log)
        assert len(report.findings) == len(ruleset)

    def test_triggered_ordering_by_severity(self):
        log = Log.from_traces([["B", "A", "B", "A"]])
        ruleset = RuleSet([
            AnomalyRule.from_text("minor", "A", "d", "info"),
            AnomalyRule.from_text("major", "B", "d", "critical"),
        ])
        triggered = ruleset.run(log).triggered
        assert [f.rule.name for f in triggered] == ["major", "minor"]

    def test_report_format_and_bool(self, figure3_log):
        report = clinic_rules().run(figure3_log)
        assert report  # the update-before-reimburse rule fires on Figure 3
        text = report.format()
        assert "update-before-reimburse" in text
        assert "WARNING" in text

    def test_clean_log_reports_nothing(self):
        log = Log.from_traces([["GetRefer", "CheckIn", "SeeDoctor"]])
        report = clinic_rules().run(log)
        assert not report
        assert report.format() == "no anomalies detected"


class TestBundledRuleSets:
    def test_clinic_rules_on_figure3(self, figure3_log):
        report = clinic_rules().run(figure3_log)
        names = {f.rule.name for f in report.triggered}
        assert "update-before-reimburse" in names
        # instance 2 is the paper's witnessing instance
        finding = next(
            f for f in report.triggered
            if f.rule.name == "update-before-reimburse"
        )
        assert finding.instance_ids == (2,)

    def test_clinic_rules_on_simulated_log(self, clinic_log):
        report = clinic_rules().run(clinic_log)
        assert any(
            f.rule.name == "update-before-reimburse" for f in report.triggered
        )

    def test_order_rules_run_clean_on_wellformed_process(self, order_log):
        report = order_rules().run(order_log)
        names = {f.rule.name for f in report.triggered}
        # the engine cannot produce refund-before-delivery traces
        assert "refund-before-delivery" not in names
        assert "double-refund" not in names

    def test_loan_rules_flag_planted_violation(self):
        log = Log.from_traces([
            ["SubmitApplication", "CreditCheck", "ManualReview", "Reject",
             "SignContract", "Disburse"],
        ])
        report = loan_rules().run(log)
        names = {f.rule.name for f in report.triggered}
        assert "disburse-after-reject" in names
