"""Cross-engine equivalence: naive ≡ kernel ≡ SQL baseline ≡ Definition 4.

The acceptance sweep for the one-kernel design: on ≥200 seeded random
pattern/log pairs — plus a battery with windowed ``->[k]`` operators and
attribute-guarded leaves — the paper-faithful naive engine, the columnar
join kernel and the SQL baseline must all produce the *canonical incident
rows* of :func:`~repro.core.incident.reference_incidents`
(``IncidentSet.to_rows()``, i.e. byte-for-byte once serialised).

The kernel's work counters are pinned too: ``golden/sweep_stats.json``
holds the ``EvaluationStats`` the object-row indexed engine reported for
every pair at the commit before it was deleted, and the kernel must
reproduce them exactly, traced and untraced.
"""

import json
import random
from pathlib import Path

import pytest

from repro.baselines.sql import SqlBaseline
from repro.core.algebra import random_logs
from repro.core.errors import EvaluationError
from repro.core.eval.naive import NaiveEngine
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.incident import reference_incidents
from repro.core.model import Log
from repro.core.pattern import (
    Atomic,
    Choice,
    Consecutive,
    Parallel,
    Sequential,
    random_pattern,
)
from repro.extensions.conditions import Compare, Guarded
from repro.extensions.windows import Within
from repro.obs.tracer import Tracer

ALPHABET = ("A", "B", "C", "D")
CASES = 220
EXTENSION_CASES = 80
GOLDEN = Path(__file__).parent / "golden" / "sweep_stats.json"


def seeded_cases():
    """Deterministic (pattern, log) pairs: one random pattern over a small
    battery of random logs, cycled until ``CASES`` pairs exist."""
    logs = random_logs(
        ALPHABET, cases=20, max_instances=3, max_events=8, seed=101
    )
    rng = random.Random(7)
    pairs = []
    while len(pairs) < CASES:
        pattern = random_pattern(rng, ALPHABET, max_depth=4)
        for log in logs[: max(1, CASES // 20)]:
            pairs.append((pattern, log))
            if len(pairs) == CASES:
                break
    return pairs


def extension_cases():
    """Deterministic pairs exercising what the fast paths special-case:
    windowed ``⊳[k]`` nodes and attribute-guarded leaves, over logs whose
    records carry a small integer attribute ``out.v``."""
    rng = random.Random(11)
    logs = []
    for base in random_logs(
        ALPHABET, cases=8, max_instances=3, max_events=8, seed=202
    ):
        logs.append(
            Log.from_tuples(
                (r.lsn, r.wid, r.is_lsn, r.activity, {}, {"v": rng.randint(0, 3)})
                for r in base
            )
        )

    def draw(depth):
        if depth <= 1 or rng.random() < 0.35:
            name, negated = rng.choice(ALPHABET), rng.random() < 0.15
            if rng.random() < 0.5:
                guard = Compare(
                    "out", "v", rng.choice(("<", ">=", "==")), rng.randint(0, 3)
                )
                return Guarded(name, negated, guard)
            return Atomic(name, negated)
        op = rng.choice((Consecutive, Sequential, Choice, Parallel, Within, Within))
        left, right = draw(depth - 1), draw(depth - 1)
        if op is Within:
            return Within(left, right, rng.randint(1, 3))
        return op(left, right)

    pairs = []
    while len(pairs) < EXTENSION_CASES:
        pattern = draw(4)
        for log in logs[:4]:
            pairs.append((pattern, log))
    return pairs[:EXTENSION_CASES]


CASE_LIST = seeded_cases()
EXTENSION_LIST = extension_cases()
SWEEPS = {"seeded": CASE_LIST, "extensions": EXTENSION_LIST}


def stats_record(pattern, stats):
    """One ``sweep_stats.json`` entry: every ``EvaluationStats`` counter."""
    return {
        "pattern": str(pattern),
        "pairs_examined": stats.pairs_examined,
        "incidents_produced": stats.incidents_produced,
        "operator_evals": stats.operator_evals,
        "max_live_incidents": stats.max_live_incidents,
        "per_operator": dict(sorted(stats.per_operator.items())),
    }


def test_sweep_is_large_enough():
    assert len(CASE_LIST) >= 200
    windowed = sum(
        any(isinstance(node, Within) for node in pattern.walk())
        for pattern, _ in EXTENSION_LIST
    )
    guarded = sum(
        any(isinstance(node, Guarded) for node in pattern.walk())
        for pattern, _ in EXTENSION_LIST
    )
    assert windowed >= 20 and guarded >= 20


def check_sweep(sweep):
    """Every engine against the Definition 4 oracle, and the kernel's
    counters against the golden, on one of the two sweeps."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[sweep]
    cases = SWEEPS[sweep]
    assert len(golden) == len(cases)
    naive, sql = NaiveEngine(), SqlBaseline()
    kernel, traced = VectorizedEngine(), VectorizedEngine(tracer=Tracer())
    for i, (pattern, log) in enumerate(cases):
        reference = reference_incidents(log, pattern).to_rows()
        columnar = log.columnar()
        assert naive.evaluate(log, pattern).to_rows() == reference, (i, pattern)
        assert kernel.evaluate(columnar, pattern).to_rows() == reference, (
            i,
            pattern,
        )
        assert traced.evaluate(log, pattern).to_rows() == reference, (i, pattern)
        try:
            pushed = sql.evaluate(columnar, pattern)
        except EvaluationError:
            # the pushed-down projection has no attribute maps
            assert any(isinstance(n, Guarded) for n in pattern.walk()), pattern
        else:
            assert pushed.to_rows() == reference, (i, pattern)
        # the kernel runs the deleted indexed engine's join algorithms, so
        # its work accounting is identical, not merely equivalent — with
        # or without the tracing hook on the closure tree
        assert stats_record(pattern, kernel.last_stats) == golden[i], (i, pattern)
        assert stats_record(pattern, traced.last_stats) == golden[i], (i, pattern)


def test_engines_agree_on_seeded_sweep():
    check_sweep("seeded")


def test_engines_agree_on_windows_and_guards():
    check_sweep("extensions")


@pytest.mark.parametrize("case_index", range(0, len(CASE_LIST), 37))
def test_spot_checks_against_the_oracle(case_index):
    """A thinner slice re-checked against the Definition 4 reference
    implementation, so the sweep is anchored to the paper semantics, not
    just to engine agreement."""
    pattern, log = CASE_LIST[case_index]
    oracle = reference_incidents(log, pattern)
    assert VectorizedEngine().evaluate(log, pattern) == oracle
    assert SqlBaseline().evaluate(log.columnar(), pattern) == oracle


def test_exists_and_count_agree_across_engines():
    naive, kernel = NaiveEngine(), VectorizedEngine()
    sql = SqlBaseline()
    for pattern, log in CASE_LIST[:60] + EXTENSION_LIST[:30]:
        columnar = log.columnar()
        expected_count = len(naive.evaluate(log, pattern))
        assert kernel.count(log, pattern) == expected_count
        assert kernel.exists(columnar, pattern) == (expected_count > 0)
        if not any(isinstance(n, Guarded) for n in pattern.walk()):
            assert sql.exists(columnar, pattern) == (expected_count > 0)
