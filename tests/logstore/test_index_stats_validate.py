"""Unit tests for statistics and validation/repair."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.errors import LogValidationError
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
        assert graph["SeeDoctor", "PayTreatment"] == 3
        assert START not in {name for edge in graph for name in edge}

    def test_directly_follows_graph_with_sentinels(self, figure3_log):
        graph = directly_follows_graph(figure3_log, include_sentinels=True)
        assert graph[START, "GetRefer"] == 3

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


@st.composite
def damaged_logs(draw):
    """1–6 records: a well-formed log of one or two interleaved
    instances, then one kind of damage Definition 2 forbids (or none)."""
    queues = []
    for wid in range(1, draw(st.integers(1, 2)) + 1):
        body = draw(st.lists(st.sampled_from(("A", "B")), max_size=2))
        names = [START, *body] + ([END] if draw(st.booleans()) else [])
        queues.append([[wid, i, name] for i, name in enumerate(names, start=1)])
    rows = []  # [lsn, wid, is_lsn, activity]
    while any(queues):
        queue = draw(st.sampled_from([q for q in queues if q]))
        rows.append([len(rows) + 1, *queue.pop(0)])
    damage = draw(st.sampled_from(
        ("none", "is-lsn order", "duplicate lsn", "after END", "no START", "lsn gap")
    ))
    if damage == "is-lsn order" and len(rows) > 1:
        i = draw(st.integers(0, len(rows) - 2))
        rows[i][2], rows[i + 1][2] = rows[i + 1][2], rows[i][2]
    elif damage == "duplicate lsn" and len(rows) > 1:
        rows[draw(st.integers(1, len(rows) - 1))][0] = 1
    elif damage == "after END":
        wid = rows[-1][1]
        last = max(row[2] for row in rows if row[1] == wid)
        rows += [[len(rows) + 1, wid, last + 1, END], [len(rows) + 2, wid, last + 2, "A"]]
    elif damage == "no START":
        rows = [row for row in rows if row[1] != 1 or row[3] != START]
        rows = [[lsn, wid, pos - (wid == 1), name]
                for lsn, (_, wid, pos, name) in enumerate(rows, start=1)]
    elif damage == "lsn gap":
        for row in rows[draw(st.integers(0, len(rows) - 1)):]:
            row[0] += 1
    return [LogRecord(lsn=l, wid=w, is_lsn=i, activity=a) for l, w, i, a in rows[:6]]


@settings(max_examples=400, deadline=None)
@given(damaged_logs())
def test_the_report_is_empty_exactly_when_the_log_constructs(records):
    """``repro-logs validate`` lists and ``Log(...)`` raises the
    violations of one Definition 2 checker; they must accept the same
    record lists."""
    try:
        Log(records)
        constructs = True
    except LogValidationError:
        constructs = False
    assert (validation_report(records) == []) == constructs


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
