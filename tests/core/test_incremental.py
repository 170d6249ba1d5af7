"""Tests for the incremental (streaming) evaluator.

The key property is *batch equivalence*: feeding a log record by record
must accumulate exactly ``incL(p)``, and every append must return exactly
the new incidents.  Differential-tested against the Definition 4 oracle.
"""

import random

import pytest

from repro.core.algebra import random_logs
from repro.core.errors import BudgetExceededError, EvaluationError
from repro.core.eval.incremental import IncrementalEvaluator
from repro.core.incident import reference_incidents
from repro.core.model import Log, LogRecord
from repro.core.parser import parse
from repro.core.pattern import random_pattern


class TestBatchEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_streaming_equals_batch_on_random_inputs(self, seed):
        rng = random.Random(seed)
        logs = random_logs("ABC", cases=5, seed=seed + 100)
        for __ in range(8):
            log = rng.choice(logs)
            pattern = random_pattern(rng, "ABC", max_depth=4)
            evaluator = IncrementalEvaluator(pattern)
            evaluator.extend(log)
            assert evaluator.incidents() == reference_incidents(log, pattern), (
                str(pattern)
            )

    def test_deltas_partition_the_incident_set(self, figure3_log):
        pattern = parse("SeeDoctor -> PayTreatment")
        evaluator = IncrementalEvaluator(pattern)
        seen = set()
        for record in figure3_log:
            delta = evaluator.append(record)
            for incident in delta:
                assert incident not in seen, "delta repeated an incident"
                seen.add(incident)
        assert seen == set(reference_incidents(figure3_log, pattern))

    def test_delta_is_attributed_to_completing_record(self, figure3_log):
        pattern = parse("UpdateRefer -> GetReimburse")
        evaluator = IncrementalEvaluator(pattern)
        for record in figure3_log:
            delta = evaluator.append(record)
            if delta:
                # the incident completes exactly at the l20 append
                assert record.lsn == 20
                assert [sorted(o.lsns) for o in delta] == [[14, 20]]

    def test_constructor_replays_existing_log(self, figure3_log):
        pattern = parse("SeeDoctor -> PayTreatment")
        evaluator = IncrementalEvaluator(pattern, figure3_log)
        assert evaluator.incidents() == reference_incidents(
            figure3_log, pattern
        )
        assert f"{len(figure3_log)} records seen" in repr(evaluator)

    def test_choice_deduplicates_across_branches(self):
        log = Log.from_traces([["A", "B"]])
        evaluator = IncrementalEvaluator(parse("A | A"))
        new = evaluator.extend(log)
        assert len(new) == 1

    def test_parallel_streaming(self):
        log = Log.from_traces([["A", "B", "A"]])
        evaluator = IncrementalEvaluator(parse("A & B"))
        evaluator.extend(log)
        assert evaluator.incidents() == reference_incidents(
            log, parse("A & B")
        )

    def test_negated_atoms_streaming(self, figure3_log):
        pattern = parse("!SeeDoctor ; SeeDoctor")
        evaluator = IncrementalEvaluator(pattern, figure3_log)
        assert evaluator.incidents() == reference_incidents(
            figure3_log, pattern
        )

    def test_windowed_operator_streaming(self, figure3_log):
        pattern = parse("SeeDoctor ->[2] PayTreatment")
        evaluator = IncrementalEvaluator(pattern, figure3_log)
        assert evaluator.incidents() == reference_incidents(
            figure3_log, pattern
        )


class TestOnlineValidation:
    def test_rejects_non_monotone_lsn(self):
        evaluator = IncrementalEvaluator(parse("A"))
        evaluator.append(LogRecord(lsn=1, wid=1, is_lsn=1, activity="START"))
        with pytest.raises(EvaluationError):
            evaluator.append(LogRecord(lsn=1, wid=2, is_lsn=1, activity="START"))

    def test_rejects_is_lsn_gap(self):
        evaluator = IncrementalEvaluator(parse("A"))
        evaluator.append(LogRecord(lsn=1, wid=1, is_lsn=1, activity="START"))
        with pytest.raises(EvaluationError):
            evaluator.append(LogRecord(lsn=2, wid=1, is_lsn=3, activity="A"))

    def test_budget_enforced(self):
        from repro.generator.synthetic import worst_case_log

        evaluator = IncrementalEvaluator(parse("t & t"), max_incidents=50)
        with pytest.raises(BudgetExceededError):
            evaluator.extend(worst_case_log(40))


class TestViews:
    def test_repr(self, figure3_log):
        evaluator = IncrementalEvaluator(parse("A"), figure3_log)
        assert "20 records seen" in repr(evaluator)


class TestLiveMonitor:
    def test_monitor_catches_figure3_fraud_live(self, figure3_log):
        from repro.analytics import LiveMonitor, clinic_rules

        monitor = LiveMonitor(clinic_rules())
        alerts = [a for record in figure3_log for a in monitor.observe(record)]
        names = {a.rule.name for a in alerts}
        assert "update-before-reimburse" in names
        offending = monitor.offending_instances()
        assert offending["update-before-reimburse"] == (2,)

    def test_alert_fires_at_the_completing_record(self, figure3_log):
        from repro.analytics import LiveMonitor, clinic_rules

        monitor = LiveMonitor(clinic_rules())
        fired_at = []
        for record in figure3_log:
            for alert in monitor.observe(record):
                if alert.rule.name == "update-before-reimburse":
                    fired_at.append(record.lsn)
        assert fired_at == [20]

    def test_on_alert_callback(self, figure3_log):
        from repro.analytics import LiveMonitor, clinic_rules

        received = []
        monitor = LiveMonitor(clinic_rules(), on_alert=received.append)
        for record in figure3_log:
            monitor.observe(record)
        assert received == list(monitor.alerts)

    def test_monitor_agrees_with_batch_ruleset(self, clinic_log):
        from repro.analytics import LiveMonitor, clinic_rules

        monitor = LiveMonitor(clinic_rules())
        for record in clinic_log:
            monitor.observe(record)
        batch = clinic_rules().run(clinic_log)
        live = monitor.offending_instances()
        for finding in batch.triggered:
            assert live.get(finding.rule.name, ()) == finding.instance_ids

    def test_alert_format(self, figure3_log):
        from repro.analytics import LiveMonitor, clinic_rules

        monitor = LiveMonitor(clinic_rules())
        for record in figure3_log:
            monitor.observe(record)
        alert = next(a for a in monitor.alerts if a.rule.name == "update-before-reimburse")
        text = alert.format()
        assert "update-before-reimburse" in text and "wid=2" in text
