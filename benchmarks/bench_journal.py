"""Experiment O2 — disabled journaling is free.

The query-lifecycle journal (``repro.obs.journal``) threads through
``Query.run`` via per-run context/recorder checks.  With no journal
configured and no budgets set, that plumbing must cost within 5% of a
bare engine evaluation — the same gate the PR-2 null tracer passes in
``bench_operators.py``.  ``test_journal_run`` times the same run with the
journal off, emitting events only, and with the tracemalloc
peak-allocation probe, so the pytest-benchmark record shows when the
enabled path drifts.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import best_of
from repro.core.options import EngineOptions
from repro.core.query import Query
from repro.obs.journal import QueryJournal
from tests.support.workloads import clinic_log

PATTERN = "GetRefer -> CheckIn -> SeeDoctor"

#: the journal of each timed variant: none, events only, events plus the
#: tracemalloc probe (interpreter-wide allocation tracing, which
#: dominates evaluation cost by design)
JOURNALS = {
    "off": lambda: None,
    "events": lambda: QueryJournal(memory=False),
    "traced": lambda: QueryJournal(),
}


@pytest.fixture(scope="module")
def log():
    return clinic_log(120, seed=42)


def test_null_journal_overhead(log):
    """``Query.run`` with journaling disabled costs within 5% of the
    bare engine call on the same optimized pattern."""
    query = Query(PATTERN, EngineOptions(optimize=False))
    optimized = query.plan(log).optimized

    def bare() -> None:
        query.engine.evaluate(log, optimized)

    def unjournaled() -> None:
        query.run(log)

    best = best_of({"bare": bare, "unjournaled": unjournaled})
    overhead = best["unjournaled"] / best["bare"] - 1.0
    assert overhead <= 0.05, f"null journal overhead {overhead:.1%} exceeds 5%"


def test_journal_events_overhead(log):
    """Event construction (``memory=False``) costs at most 2x the
    disabled path: a run is two events, so anything more means event
    construction regressed badly."""
    off = Query(PATTERN, EngineOptions(optimize=False))
    events = Query(PATTERN, EngineOptions(optimize=False, journal=QueryJournal(memory=False)))
    best = best_of({"off": lambda: off.run(log), "events": lambda: events.run(log)})
    overhead = best["events"] / best["off"] - 1.0
    assert overhead <= 1.0, f"journal event overhead {overhead:.1%} exceeds 100%"


@pytest.mark.parametrize("journal", sorted(JOURNALS))
def test_journal_run(benchmark, log, journal):
    query = Query(PATTERN, EngineOptions(optimize=False, journal=JOURNALS[journal]()))
    benchmark.group = "O2-journal"
    assert len(benchmark(query.run, log)) > 0
