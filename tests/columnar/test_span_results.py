"""The kernel's span-backed ``IncidentSet`` against the eager one.

``VectorizedEngine.evaluate`` returns a lazy view over its position
tuples; ``IncidentSet(list(result))`` is the same set built from
``Incident`` objects the way every other engine builds it.  Over the
seeded sweep of ``test_cross_engine_equivalence`` (the 220 random pairs
and the 80 window / guard pairs, alone and as a repeated root of
``evaluate_all``) the two must answer every accessor identically, in
whatever order the accessors are called; reading a result must never
change the span lists the kernel shares between results; and a kill
mid-``evaluate`` must report what the commit before this representation
reported.
"""

import copy
import json
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.errors import BudgetExceededError, QueryBudgetExceeded
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.governor import ResourceGovernor
from repro.core.incident import Incident, IncidentSet
from repro.core.model import LogRecord

from .test_cross_engine_equivalence import CASE_LIST, EXTENSION_LIST, stats_record

ALL_CASES = CASE_LIST + EXTENSION_LIST
KILL_GOLDEN = Path(__file__).parent / "golden" / "kill_stats.json"


def limits(n):
    return (None, 0, 1, n, n + 1)


#: accessor name -> value that must not depend on the representation
ACCESSORS = {
    "len": len,
    "bool": bool,
    "wids": IncidentSet.wids,
    "rows": lambda s: [s.to_rows(limit) for limit in limits(len(s))],
    "iter": list,
    "sort_keys": lambda s: [o.sort_key for o in s],
    "hash": hash,
    "to_set": frozenset,
    "lsn_sets": IncidentSet.lsn_sets,
    "contains": lambda s: [o in s for o in list(s)[:3]],
    "repr": repr,
}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(ALL_CASES),
    st.booleans(),
    st.permutations(sorted(ACCESSORS)),
)
def test_span_backed_set_answers_like_the_eager_one(case, share, order):
    pattern, log = case
    engine = VectorizedEngine()
    eager = IncidentSet(list(engine.evaluate(log, pattern)))
    if share:
        # the repeated root is the first one's node: served from its memo
        _, lazy = engine.evaluate_all(log, [pattern, pattern])[0]
    else:
        lazy = engine.evaluate(log, pattern)
    for name in order:
        assert ACCESSORS[name](lazy) == ACCESSORS[name](eager), (name, order)
    assert lazy == eager and eager == lazy
    assert lazy == set(eager)


def test_batch_results_equal_their_eager_copies():
    """Many roots in one ``evaluate_all``, as ``evaluate_batch`` runs
    them: later results are built from earlier results' span lists."""
    for start in range(0, len(ALL_CASES), 20):
        cases = ALL_CASES[start : start + 20]
        log = cases[0][1]
        results, _ = VectorizedEngine().evaluate_all(log, [pattern for pattern, _ in cases])
        for (pattern, _), lazy in zip(cases, results):
            eager = IncidentSet(list(VectorizedEngine().evaluate(log, pattern)))
            assert lazy.to_rows() == eager.to_rows(), pattern
            assert list(lazy) == list(eager), pattern


def read_everything(result):
    for accessor in ACCESSORS.values():
        accessor(result)


@pytest.mark.parametrize("case_index", range(0, len(ALL_CASES), 9))
def test_reading_a_result_never_changes_what_the_kernel_shares(case_index):
    pattern, log = ALL_CASES[case_index]
    columnar = log.columnar()
    engine = VectorizedEngine()
    first, second = engine.evaluate_all(columnar, [pattern, pattern])[0]
    leaves = copy.deepcopy(columnar._leaves)
    rows = second.to_rows()
    read_everything(first)
    # list equality: the order inside a shared list is what later joins rely on
    assert columnar._leaves == leaves
    assert second.to_rows() == rows == first.to_rows()
    again, _ = engine.evaluate_all(columnar, [pattern])
    assert again[0].to_rows() == first.to_rows()
    assert VectorizedEngine().evaluate(columnar, pattern).to_rows() == first.to_rows()


# -- kills mid-evaluate --------------------------------------------------------


def kill_cases():
    """(case index, budget kind, budget) triples the golden was recorded for."""
    return [
        (index, kind, budget)
        for index in range(0, len(ALL_CASES), 6)
        for kind, budget in (
            ("max_pairs", 1),
            ("max_pairs", 6),
            ("max_incidents", 0),
            ("max_incidents", 2),
        )
    ]


def run_killed(index, kind, budget):
    """One governed / capped evaluation: what it raised and what it had
    cost, or its full stats when the budget was enough."""
    pattern, log = ALL_CASES[index]
    if kind == "max_pairs":
        governor = ResourceGovernor(max_pairs=budget)
        engine = VectorizedEngine(governor=governor)
    else:
        engine = VectorizedEngine(max_incidents=budget)
    try:
        result = engine.evaluate(log, pattern)
    except QueryBudgetExceeded as exc:
        assert exc.partial_stats == engine.last_stats
        return {"error": "QueryBudgetExceeded", **stats_record(pattern, exc.partial_stats)}
    except BudgetExceededError as exc:
        return {"error": "BudgetExceededError", "message": str(exc), "pattern": str(pattern)}
    return {"error": None, "incidents": len(result), **stats_record(pattern, engine.last_stats)}


def test_kills_raise_what_the_parent_commit_raised():
    """``golden/kill_stats.json`` was recorded with :func:`run_killed` at
    the commit before the kernel stopped materialising at the root, and
    re-recorded when the kernel began checking its budgets inside the
    joins: 23 of the 200 cases moved, each raising the same error as
    before with no partial counter higher.  Re-recorded once more when
    the kernel became set-at-a-time (one pass per pattern node, not per
    instance): 44 kills moved with the order of the work, each raising
    the same error class, every completed case unchanged and every
    ``max_pairs`` kill within one slice of its budget."""
    golden = json.loads(KILL_GOLDEN.read_text(encoding="utf-8"))
    cases = kill_cases()
    assert len(golden) == len(cases)
    outcomes = [run_killed(*case) for case in cases]
    assert outcomes == golden
    kinds = {outcome["error"] for outcome in outcomes}
    assert kinds == {None, "QueryBudgetExceeded", "BudgetExceededError"}


def test_a_killed_shared_run_leaves_nothing_a_later_run_can_see():
    for index in range(0, len(ALL_CASES), 15):
        pattern, log = ALL_CASES[index]
        engine = VectorizedEngine()
        engine.governor = ResourceGovernor(max_pairs=1)
        try:
            engine.evaluate_all(log, [pattern, pattern])
        except QueryBudgetExceeded:
            pass
        engine.governor = None
        results, _ = engine.evaluate_all(log, [pattern, pattern])
        expected = VectorizedEngine().evaluate(log, pattern).to_rows()
        assert [result.to_rows() for result in results] == [expected, expected]


# -- membership ----------------------------------------------------------------


def test_membership_in_a_span_backed_set_reads_one_window(figure3_log, request):
    from repro.core.parser import parse

    pattern = parse("GetRefer -> CheckIn")
    members = list(VectorizedEngine().evaluate(figure3_log, pattern))
    assert members
    inside = members[0]
    records = figure3_log.instance(inside.wid)
    outside = Incident([records[0]])  # same instance, not a match
    foreign = Incident(  # right positions, another log's lsns
        [
            LogRecord(lsn=r.lsn + 1000, wid=r.wid, is_lsn=r.is_lsn, activity=r.activity)
            for r in inside.records
        ]
    )
    elsewhere = Incident([LogRecord(lsn=9999, wid=9999, is_lsn=1, activity="GetRefer")])
    lazy = VectorizedEngine().evaluate(figure3_log, pattern)
    built = request.getfixturevalue("incidents_built")  # counting starts here
    assert inside in lazy
    assert outside not in lazy
    assert foreign not in lazy
    assert elsewhere not in lazy
    assert "GetRefer" not in lazy
    assert not built
    assert all(o in lazy for o in members) and len(built) == 0


def test_membership_probes_share_one_key_set():
    incidents = [
        Incident([LogRecord(lsn=i, wid=1, is_lsn=i, activity="A")]) for i in range(1, 50)
    ]
    eager = IncidentSet(incidents)
    assert incidents[0] in eager
    keys = eager._keys
    assert keys == frozenset(incidents)
    assert all(o in eager for o in incidents)
    assert eager._keys is keys  # built once, not per probe
