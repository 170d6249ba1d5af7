"""Journal lifecycle and governor kills of ``Query`` runs and batches.

One run is one query record: one ``query_id``/``trace_id`` across its
``submit`` and its terminal event, which carries the run's pairs;
governed runs die with the typed error and the journal closes with a
``killed`` event.
"""

import pytest

from repro.core.errors import QueryBudgetExceeded, QueryGovernorError
from repro.core.options import EngineOptions
from repro.core.query import Query
from repro.exec.batch import evaluate_batch
from repro.obs.journal import QueryJournal, validate_journal

PATTERN = "GetRefer -> CheckIn -> SeeDoctor"


def _kinds(journal):
    return [e["event"] for e in journal.events]


class TestGovernedRuns:
    def test_serial_killed_event_has_partial_pairs(self, clinic_log):
        journal = QueryJournal()
        query = Query(PATTERN, EngineOptions(journal=journal, max_pairs=3))
        with pytest.raises(QueryBudgetExceeded):
            query.run(clinic_log)
        killed = journal.events[-1]
        assert killed["event"] == "killed"
        assert killed["reason"] == "QueryBudgetExceeded"
        assert killed["pairs"] > 3


class TestBatchJournal:
    PATTERNS = [
        "GetRefer -> CheckIn",
        "GetRefer -> CheckIn -> SeeDoctor",
        "UpdateRefer -> GetReimburse",
    ]

    def test_serial_batch_lifecycle(self, clinic_log):
        journal = QueryJournal()
        batch = evaluate_batch(clinic_log, self.PATTERNS, EngineOptions(journal=journal))
        validate_journal(journal.events)
        assert _kinds(journal) == ["submit", "finish"]
        finish = journal.events[-1]
        assert finish["queries"] == 3
        assert finish["incidents"] == sum(len(r) for r in batch.results)
        assert finish["pairs"] == batch.stats.pairs_examined

    def test_batch_budget_kills_with_terminal_event(self, clinic_log):
        journal = QueryJournal()
        with pytest.raises(QueryGovernorError):
            evaluate_batch(
                clinic_log, self.PATTERNS, EngineOptions(journal=journal, max_pairs=3)
            )
        validate_journal(journal.events)
        assert journal.events[-1]["event"] == "killed"

    def test_max_pairs_bounds_the_whole_batch(self, clinic_log):
        """Two queries that share nothing: each fits the budget alone,
        together they do not."""
        disjoint = ["GetRefer -> CheckIn", "UpdateRefer -> GetReimburse"]
        alone = []
        for text in disjoint:
            query = Query(text, EngineOptions(optimize=False))
            query.run(clinic_log)
            alone.append(query.engine.last_stats.pairs_examined)
        assert min(alone) > 0
        budget = max(alone)
        for text in disjoint:
            Query(text, EngineOptions(optimize=False, max_pairs=budget)).run(
                clinic_log
            )
        with pytest.raises(QueryBudgetExceeded) as info:
            evaluate_batch(
                clinic_log, disjoint, EngineOptions(optimize=False, max_pairs=budget)
            )
        assert info.value.examined > budget

    def test_batch_cache_probe_event(self, clinic_log):
        from repro.cache import QueryCache

        cache = QueryCache()
        journal = QueryJournal()
        options = EngineOptions(cache=cache, journal=journal)
        evaluate_batch(clinic_log, self.PATTERNS, options)
        evaluate_batch(clinic_log, self.PATTERNS, options)
        validate_journal(journal.events)
        assert _kinds(journal) == ["submit", "finish"] * 2
        finishes = [e for e in journal.events if e["event"] == "finish"]
        assert [e["cache_hits"] for e in finishes] == [0, 3]

    def test_journal_off_results_unchanged(self, clinic_log):
        plain = evaluate_batch(clinic_log, self.PATTERNS)
        journal = QueryJournal()
        journaled = evaluate_batch(clinic_log, self.PATTERNS, EngineOptions(journal=journal))
        for a, b in zip(plain.results, journaled.results):
            assert set(a) == set(b)
