"""Exactness of ``PatternProver.spec_witness`` against Definition 4.

For small random specs every run is enumerated (shuffles for ``Par``,
1..k copies for ``Loop``, with and without ``END``), and each run's
one-instance log is handed to the recursive oracle
(``reference_incidents``).  ``spec_witness`` must return ``None`` exactly
when no run holds an incident, and every witness it returns must hold
its incident.  Seeded, so failures reproduce.
"""

from __future__ import annotations

import random
from itertools import product

from repro.analysis import default_prover
from repro.core.incident import reference_incidents
from repro.core.model import END, START, Log
from repro.core.pattern import random_pattern, to_text
from repro.workflow.spec import Loop, Maybe, Par, Sequence, Step, WorkflowSpec, Xor
from tests.test_lint_properties import ALPHABET, GHOST, random_block

MAX_RUNS = 2_000
SPECS = 100
PATTERNS_PER_SPEC = 6


class _TooManyRuns(Exception):
    pass


def _capped(runs: set[tuple[str, ...]]) -> set[tuple[str, ...]]:
    if len(runs) > MAX_RUNS:
        raise _TooManyRuns
    return runs


def _shuffles(a: tuple[str, ...], b: tuple[str, ...]) -> set[tuple[str, ...]]:
    if not a or not b:
        return {a + b}
    return {(a[0], *rest) for rest in _shuffles(a[1:], b)} | {
        (b[0], *rest) for rest in _shuffles(a, b[1:])
    }


def runs(block) -> set[tuple[str, ...]]:
    """Every activity sequence one run of ``block`` can produce."""
    if isinstance(block, Step):
        return {(block.activity,)}
    if isinstance(block, Sequence):
        out: set[tuple[str, ...]] = {()}
        for part in block.blocks:
            out = _capped({x + y for x in out for y in runs(part)})
        return out
    if isinstance(block, Xor):
        return _capped(set().union(*(runs(b) for b in block.branches)))
    if isinstance(block, Maybe):
        return runs(block.block) | {()}
    if isinstance(block, Loop):
        body = runs(block.body)
        out, layer = set(body), body
        for _ in range(block.max_iterations - 1):
            layer = _capped({x + y for x in layer for y in body})
            out = _capped(out | layer)
        return out
    if isinstance(block, Par):
        out = runs(block.branches[0])
        for branch in block.branches[1:]:
            other = runs(branch)
            out = _capped({s for x, y in product(out, other) for s in _shuffles(x, y)})
        return out
    raise TypeError(block)


def instance_logs(spec: WorkflowSpec) -> list[Log]:
    """One single-instance log per run, with and without ``END``."""
    return [
        Log.from_traces([[START, *body, *end]], add_sentinels=False)
        for body in sorted(runs(spec.root))
        for end in ((), (END,))
    ]


def test_spec_witness_is_exact_on_enumerated_runs():
    rng = random.Random(2028)
    prover = default_prover()
    checked = refuted = 0
    for index in range(SPECS):
        spec = WorkflowSpec(name=f"rand-{index}", root=random_block(rng), strict=False)
        patterns = [
            random_pattern(rng, ALPHABET + (GHOST,), max_depth=3)
            for _ in range(PATTERNS_PER_SPEC)
        ]
        try:
            logs = instance_logs(spec)
        except _TooManyRuns:
            continue
        for pattern in patterns:
            witness = prover.spec_witness(spec, pattern)
            matched = any(reference_incidents(log, pattern) for log in logs)
            assert (witness is None) == (not matched), (
                f"{to_text(pattern)!r} over {spec.root!r}: "
                f"witness {witness}, oracle match {matched}"
            )
            checked += 1
            if witness is None:
                refuted += 1
                continue
            log, incident = witness
            assert incident in reference_incidents(log, pattern), to_text(pattern)
    assert checked >= 200, checked
    assert 0 < refuted < checked, (refuted, checked)
