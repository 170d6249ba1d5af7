"""Joins never cross an instance boundary.

The kernel evaluates each pattern node over the whole log at once: its
incidents carry global row numbers, and instance ``i`` is the row
window ``[starts[i], starts[i+1])``.  Adjacent windows are adjacent rows,
so every join has to stop at its left incident's window end.  These
logs put the tempting candidate right across a boundary:

* a left incident on its window's last row, and the next window's first
  row (its ``START``) as the right candidate of ``⊙``, ``⊳`` and
  ``⊳[k]``, with ``k`` reaching past the window's end;
* ``⊕`` operands that only meet in neighbouring windows;
* negated leaves on a window's first and last rows;
* one window of 300 ``A`` records beside small ones (a Theorem-1 window:
  masks 300 bits wide, as in ``benchmarks/bench_worst_case.py``).

Every result must be the Definition 4 oracle's, and the kernel's
``EvaluationStats`` the ones ``golden/boundary_stats.json`` holds,
recorded with the window-at-a-time kernel this one replaced.
"""

import json
from pathlib import Path

import pytest

from repro.core.eval.naive import NaiveEngine
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.incident import reference_incidents
from repro.core.model import Log
from repro.core.parser import parse

from .test_cross_engine_equivalence import stats_record

GOLDEN = Path(__file__).parent / "golden" / "boundary_stats.json"

#: Open instances (no END), so a window's last row is an activity.
EDGES = (
    ("START", "X", "A"),
    ("START", "A", "B", "A"),
    ("START", "B"),
    ("START", "X", "A", "A", "X"),
    ("START", "B", "X", "B"),
)

EDGE_PATTERNS = (
    "A ; START",
    "A -> START",
    "A ->[1] START",
    "A ->[4] START",
    "A ->[9] B",
    "A ; B",
    "A -> B",
    "B ->[3] A",
    "A ; !A",
    "A -> !X",
    "A ->[2] !A",
    "!X ; START",
    "!B ; !A",
    "X & B",
    "A & START",
    "!A & B",
    "(A ; START) | (A -> B)",
    "A ->[2] (START | B)",
    "(X | A) ; (START | B)",
    "(A & B) -> START",
    "X -> A -> START",
)

WIDE = (("START", *["A"] * 300), ("START", "A", "A"), ("START", "B", "A"))

WIDE_PATTERNS = (
    "A ; A",
    "A ->[2] A ->[2] A",
    "A ; START",
    "A ->[5] START",
    "START & A",
    "(A ; A) | B",
    "!B ; A ; A",
)


def logs():
    return {
        "edges": Log.from_traces(EDGES, add_sentinels=False),
        "wide": Log.from_traces(WIDE, add_sentinels=False),
    }


def cases():
    built = logs()
    sets = (("edges", EDGE_PATTERNS), ("wide", WIDE_PATTERNS))
    return [(name, text, built[name]) for name, texts in sets for text in texts]


CASES = cases()


def record() -> dict:
    """What ``golden/boundary_stats.json`` holds: the kernel's stats for
    every case, keyed ``"<log>: <pattern>"`` (written with
    ``json.dumps(record(), ensure_ascii=False, indent=1, sort_keys=True)``
    on the window-at-a-time kernel's tree)."""
    out = {}
    for name, text, log in CASES:
        engine = VectorizedEngine()
        engine.evaluate(log, parse(text))
        out[f"{name}: {text}"] = stats_record(parse(text), engine.last_stats)
    return out


def test_windows_are_adjacent_rows():
    for log in logs().values():
        columnar = log.columnar()
        windows = list(columnar.wid_windows())
        assert all(hi == next_lo for (_, _, hi), (_, next_lo, _) in zip(windows, windows[1:]))
        assert all(columnar.rows[lo].activity == "START" for _, lo, _ in windows)
        assert columnar.rows[windows[0][2] - 1].activity in ("A", "X")


@pytest.mark.parametrize("name, text, log", CASES, ids=[f"{n}:{t}" for n, t, _ in CASES])
def test_no_join_crosses_a_window(name, text, log):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    pattern = parse(text)
    oracle = reference_incidents(log, pattern).to_rows()
    engine = VectorizedEngine()
    assert engine.evaluate(log, pattern).to_rows() == oracle
    assert stats_record(pattern, engine.last_stats) == golden[f"{name}: {text}"]
    assert NaiveEngine().evaluate(log, pattern).to_rows() == oracle
    assert engine.count(log, pattern) == len(oracle)
    assert engine.exists(log, pattern) is bool(oracle)


def test_a_batch_over_the_boundaries_answers_each_pattern_alone():
    for name, texts in (("edges", EDGE_PATTERNS), ("wide", WIDE_PATTERNS)):
        log = logs()[name]
        patterns = [parse(text) for text in texts]
        results, _ = VectorizedEngine().evaluate_all(log, patterns)
        for pattern, result in zip(patterns, results):
            assert result.to_rows() == reference_incidents(log, pattern).to_rows(), pattern
