"""Unit tests for statistics and validation/repair."""

import pytest

from repro.core.model import END, START, Log, LogRecord
from repro.logstore.stats import (
    directly_follows_graph,
    summarize,
    variant_counts,
)
from repro.logstore.validate import repair_log, validation_report


class TestStats:
    def test_summary_values(self, figure3_log):
        summary = summarize(figure3_log)
        assert summary.total_records == 20
        assert summary.instance_count == 3
        assert summary.completed_instances == 0
        assert summary.length_max == 9
        assert summary.length_min == 2
        assert summary.activity_counts["SeeDoctor"] == 4
        assert "balance" in summary.attribute_names

    def test_summary_format_is_printable(self, clinic_log):
        text = summarize(clinic_log).format()
        assert "records" in text and "instances" in text

    def test_directly_follows_graph(self, figure3_log):
        graph = directly_follows_graph(figure3_log)
        assert graph["SeeDoctor"]["PayTreatment"]["count"] == 3
        assert START not in graph.nodes

    def test_directly_follows_graph_with_sentinels(self, figure3_log):
        graph = directly_follows_graph(figure3_log, include_sentinels=True)
        assert graph[START]["GetRefer"]["count"] == 3

    def test_variant_counts(self):
        log = Log.from_traces({1: ["A", "B"], 2: ["A", "B"], 3: ["A"]})
        variants = variant_counts(log)
        assert variants[("A", "B")] == 2
        assert variants[("A",)] == 1


class TestValidationReport:
    def test_clean_log_has_no_issues(self, figure3_log):
        assert validation_report(figure3_log.records) == []

    def test_every_condition_is_reported(self):
        records = [
            LogRecord(lsn=1, wid=1, is_lsn=1, activity=START),
            LogRecord(lsn=2, wid=1, is_lsn=2, activity=END),
            LogRecord(lsn=3, wid=1, is_lsn=3, activity="A"),     # after END
            LogRecord(lsn=5, wid=2, is_lsn=1, activity="B"),     # no START, lsn gap
        ]
        issues = validation_report(records)
        conditions = {issue.condition for issue in issues}
        assert 1 in conditions  # lsn gap
        assert 2 in conditions  # wid 2 starts without START
        assert 4 in conditions  # record after END

    def test_duplicate_lsn_reported(self):
        records = [
            LogRecord(lsn=1, wid=1, is_lsn=1, activity=START),
            LogRecord(lsn=1, wid=2, is_lsn=1, activity=START),
        ]
        issues = validation_report(records)
        assert any("duplicate" in issue.message for issue in issues)

    def test_empty_input_reported(self):
        assert validation_report([])[0].message == "log is empty"

    def test_issue_str_mentions_condition(self):
        records = [LogRecord(lsn=1, wid=1, is_lsn=1, activity="A")]
        issue = validation_report(records)[0]
        assert "condition 2" in str(issue)


class TestRepair:
    def test_repairing_a_gap_drops_the_suffix(self, figure3_log):
        # drop two mid-instance records of wid 1 (lsn 9 and 11)
        records = [r for r in figure3_log.records if r.lsn not in (9, 11)]
        repaired, dropped = repair_log(records)
        repaired.validate()
        # wid 1 is cut at the gap; wid 2 and 3 fully retained
        assert len(repaired.instance(2)) == 9
        assert len(repaired.instance(3)) == 2
        assert [r.activity for r in repaired.instance(1)] == [
            START, "GetRefer", "CheckIn",
        ]
        assert all(r.wid == 1 for r in dropped)

    def test_missing_start_is_synthesised(self):
        records = [
            LogRecord(lsn=1, wid=1, is_lsn=1, activity=START),
            LogRecord(lsn=2, wid=1, is_lsn=2, activity="A"),
            LogRecord(lsn=3, wid=2, is_lsn=1, activity="B"),  # headless
        ]
        repaired, dropped = repair_log(records)
        repaired.validate()
        assert [r.activity for r in repaired.instance(2)] == [START, "B"]
        assert not dropped

    def test_records_after_end_are_dropped(self):
        records = [
            LogRecord(lsn=1, wid=1, is_lsn=1, activity=START),
            LogRecord(lsn=2, wid=1, is_lsn=2, activity=END),
            LogRecord(lsn=3, wid=1, is_lsn=3, activity="A"),
        ]
        repaired, dropped = repair_log(records)
        repaired.validate()
        assert len(dropped) == 1

    def test_nothing_salvageable_raises(self):
        records = [LogRecord(lsn=1, wid=1, is_lsn=5, activity="A")]
        with pytest.raises(ValueError):
            repair_log(records)

    def test_repaired_log_passes_report(self, figure3_log):
        records = [r for r in figure3_log.records if r.lsn != 4]
        repaired, __ = repair_log(records)
        assert validation_report(repaired.records) == []
