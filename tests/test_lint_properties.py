"""Soundness of the linter's unsatisfiability verdict (QW201).

The acceptance property: for every pattern the linter flags as
unsatisfiable against a workflow specification, evaluating that pattern
over logs *generated from that specification* yields zero incidents.
Checked on well over 100 randomly generated spec/log pairs, with both
production engines as independent witnesses.

A complementary test covers the log-context verdicts (vocabulary and
record-count overdemand): a QW201 issued against a concrete log's
statistics implies emptiness on that same log.

Everything is seeded — failures reproduce deterministically.
"""

from __future__ import annotations

import random

from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.lint import Linter
from repro.core.pattern import random_pattern, to_text
from repro.workflow.engine import SimulationConfig, WorkflowEngine
from repro.workflow.spec import Loop, Maybe, Par, Sequence, Step, WorkflowSpec, Xor

ALPHABET = ("A", "B", "C", "D", "E")
#: reachable in no generated spec — a rich source of unsatisfiable queries
GHOST = "Ghost"

SPEC_LOG_PAIRS = 120
PATTERNS_PER_PAIR = 6


def random_block(rng: random.Random, depth: int = 3):
    """A random block-structured workflow over ``ALPHABET``."""
    if depth <= 0 or rng.random() < 0.3:
        return Step(rng.choice(ALPHABET))
    kind = rng.randrange(5)
    if kind == 0:
        return Sequence(
            *(random_block(rng, depth - 1) for _ in range(rng.randint(2, 3)))
        )
    if kind == 1:
        return Xor(random_block(rng, depth - 1), random_block(rng, depth - 1))
    if kind == 2:
        return Par(random_block(rng, depth - 1), random_block(rng, depth - 1))
    if kind == 3:
        return Loop(random_block(rng, depth - 1), again=0.4, max_iterations=3)
    return Maybe(random_block(rng, depth - 1), prob=0.6)


def random_pair(rng: random.Random, index: int):
    """One (spec, simulated log) pair; the log seed varies with ``index``."""
    spec = WorkflowSpec(
        name=f"rand-{index}", root=random_block(rng), strict=False
    )
    log = WorkflowEngine(spec).run(SimulationConfig(instances=8, seed=index))
    return spec, log


def test_spec_unsat_verdict_implies_empty_incident_set():
    rng = random.Random(20260806)
    naive, indexed = NaiveEngine(), VectorizedEngine()
    unsat_checked = 0
    not_flagged = 0
    for index in range(SPEC_LOG_PAIRS):
        spec, log = random_pair(rng, index)
        linter = Linter.for_context(spec=spec)
        for _ in range(PATTERNS_PER_PAIR):
            pattern = random_pattern(rng, ALPHABET + (GHOST,), max_depth=3)
            if not any(d.code == "QW201" for d in linter.lint(pattern)):
                not_flagged += 1
                continue
            unsat_checked += 1
            for engine in (naive, indexed):
                assert not engine.exists(log, pattern), (
                    f"lint flagged {to_text(pattern)!r} unsatisfiable for "
                    f"spec {spec.name!r}, but "
                    f"{type(engine).__name__} found an incident"
                )
    # the acceptance bar: the implication held on >= 100 flagged patterns
    # spread over >= 100 distinct spec/log pairs
    assert SPEC_LOG_PAIRS >= 100
    assert unsat_checked >= 100, f"only {unsat_checked} unsat verdicts exercised"
    # sanity: the linter is not trivially sound by flagging everything
    assert not_flagged >= 100, f"only {not_flagged} patterns went unflagged"


def test_log_unsat_verdict_implies_empty_on_that_log():
    rng = random.Random(7)
    indexed = VectorizedEngine()
    unsat_checked = 0
    for index in range(40):
        spec, log = random_pair(rng, index)
        # stats-only linter: vocabulary + record-overdemand verdicts
        linter = Linter.for_log(log)
        for _ in range(PATTERNS_PER_PAIR):
            pattern = random_pattern(rng, ALPHABET + (GHOST,), max_depth=3)
            if not any(d.code == "QW201" for d in linter.lint(pattern)):
                continue
            unsat_checked += 1
            assert not indexed.exists(log, pattern), (
                f"lint flagged {to_text(pattern)!r} unsatisfiable against "
                f"the log's statistics, but an incident exists"
            )
    assert unsat_checked >= 20, f"only {unsat_checked} unsat verdicts exercised"
