"""Shared benchmark helpers.

The paper has no numeric tables — its quantitative content is the
complexity analysis (Lemma 1, Theorem 1) and the optimization-enabling
laws (Theorems 2-5).  Each ``bench_*.py`` regenerates the corresponding
claim as measured series; EXPERIMENTS.md records the expected vs measured
shapes.  Run with::

    pytest benchmarks/ --ignore=benchmarks/e2e --benchmark-only

``--benchmark-disable`` runs every body once with every assertion and no
timing; ``--benchmark-json=OUT.json`` keeps the timings.  The workloads
come from :func:`tests.support.workloads.clinic_log` (a seeded
simulation), so two runs time the same work.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping


def best_of(runs: Mapping[str, Callable[[], object]], rounds: int = 15) -> dict[str, float]:
    """Interleaved min-of-N timing of each variant, in seconds.

    Every variant runs once untimed, then ``rounds`` times in turn with
    the others; the minimum over the rounds estimates each variant's cost
    floor with scheduler noise cancelled.  The overhead gates compare two
    of these minima as a ratio.
    """
    for run in runs.values():
        run()  # warmup
    best = dict.fromkeys(runs, float("inf"))
    for _ in range(rounds):
        for name, run in runs.items():
            started = time.perf_counter()
            run()
            best[name] = min(best[name], time.perf_counter() - started)
    return best
