"""A kill on the join kernel is on time (Theorem 1's windows).

One workflow instance of ``n`` ``A`` records holds C(n, k+1) incidents of
a ⊕-chain of ``k`` operators, all in one window, so a budget that is only
consulted between windows or between operator nodes is consulted too
late.  These tests pin the three budgets inside the joins:

* a deadline kill lands within ``SLACK_MS`` of the deadline;
* a ``max_pairs`` kill overshoots the budget by at most one slice of the
  join that tripped (the pairs one left incident examines);
* a ``max_incidents`` cap fires before the join's output is more than
  one slice past the cap.

A full pass of the cycle collector walks every object the process holds,
and no checkpoint can interrupt it: in a test run that is pytest's,
hypothesis's and the other tests' objects, 45–80 ms a pass.  The deadline
tests pin the kernel's checkpoints, so they freeze what existed before
the test out of the collector and leave it the objects the query itself
allocates.
"""

import gc
import re
import time

import pytest

from repro.core.errors import BudgetExceededError, QueryBudgetExceeded, QueryTimeout
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.governor import ResourceGovernor
from repro.core.model import Log
from repro.core.parser import parse

SLACK_MS = 100


def hot_log(n: int) -> Log:
    """One instance of ``n`` ``A`` records (plus its sentinels)."""
    return Log.from_traces([["A"] * n])


@pytest.fixture()
def frozen_heap():
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


@pytest.mark.parametrize(
    "n, text, deadline_ms",
    [
        (45, "A & A & A & A", 200),
        (60, "A & A & A & A", 200),
        (80, "A & A & A & A", 100),
        (300, "A -> A -> A", 100),
    ],
)
def test_a_deadline_kill_lands_within_the_slack(n, text, deadline_ms, frozen_heap):
    log, pattern = hot_log(n), parse(text)
    started = time.perf_counter()
    governor = ResourceGovernor(
        deadline_unix=time.time() + deadline_ms / 1000.0, deadline_ms=deadline_ms
    )
    with pytest.raises(QueryTimeout):
        VectorizedEngine(governor=governor).evaluate(log, pattern)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    assert elapsed_ms <= deadline_ms + SLACK_MS, elapsed_ms


#: ``A & A & A & A`` parses left-deep, so every ⊕ join's right operand is
#: one ``A`` leaf: a slice is ``n`` pairs.  In ``A -> A -> A`` the first
#: join trips, and a left incident's slice is the ``A``s after it.
@pytest.mark.parametrize(
    "n, text, largest_slice",
    [(80, "A & A & A & A", 80), (300, "A -> A -> A", 299)],
)
def test_a_pairs_kill_overshoots_by_at_most_one_slice(n, text, largest_slice):
    engine = VectorizedEngine(governor=ResourceGovernor(max_pairs=10_000))
    with pytest.raises(QueryBudgetExceeded) as info:
        engine.evaluate(hot_log(n), parse(text))
    examined = info.value.partial_stats.pairs_examined
    assert 10_000 < examined <= 10_000 + largest_slice
    assert info.value.examined == examined


@pytest.mark.parametrize(
    "n, text, largest_slice",
    [(80, "A & A & A & A", 80), (300, "A -> A -> A", 299)],
)
def test_an_incident_cap_fires_within_one_slice_of_the_cap(n, text, largest_slice):
    engine = VectorizedEngine(max_incidents=5_000)
    with pytest.raises(BudgetExceededError) as info:
        engine.evaluate(hot_log(n), parse(text))
    reached = int(re.search(r"reached (\d+)", str(info.value)).group(1))
    assert 5_000 < reached <= 5_000 + largest_slice
