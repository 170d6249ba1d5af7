"""The value types survive pickling intact.

Patterns, records, logs, incidents, statistics and spans are plain
values that callers cache, copy and ship; these round-trips pin that
contract for each class, so a future ``__slots__``/``__reduce__`` change
that silently breaks it fails here first.  (The governor errors'
round-trips are in ``tests/core/test_governor.py``.)
"""

import pickle

import pytest

from repro.core.eval.base import EvaluationStats
from repro.core.incident import Incident
from repro.core.model import LogRecord
from repro.core.parser import parse
from repro.core.pattern import Atomic
from repro.extensions.conditions import Guarded, attr
from repro.extensions.windows import Within
from repro.obs.tracer import Span, Tracer


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


PATTERNS = [
    "A",
    "!A",
    "A ; B",
    "A -> B",
    "A | B",
    "A & B",
    "(A -> B) & !C",
    "A -> (B | C) -> D",
]


@pytest.mark.parametrize("text", PATTERNS)
def test_patterns_roundtrip(text):
    pattern = parse(text)
    clone = roundtrip(pattern)
    assert clone == pattern
    assert hash(clone) == hash(pattern)
    assert str(clone) == str(pattern)


def test_windowed_and_guarded_patterns_roundtrip():
    bounded = Within(Atomic("A"), Atomic("B"), 3)
    clone = roundtrip(bounded)
    assert clone == bounded
    assert clone.bound == 3

    guarded = Guarded("GetRefer", False, attr("out.balance") > 500)
    clone = roundtrip(guarded)
    assert clone == guarded
    record = LogRecord(
        lsn=1, wid=1, is_lsn=1, activity="GetRefer", attrs_out={"balance": 900}
    )
    assert clone.matches(record) == guarded.matches(record)


def test_log_record_and_log_roundtrip(figure3_log):
    record = figure3_log.records[2]
    clone = roundtrip(record)
    assert clone == record
    assert clone.attrs_out == record.attrs_out

    log_clone = roundtrip(figure3_log)
    assert list(log_clone.records) == list(figure3_log.records)
    assert log_clone.wids == figure3_log.wids


def test_incident_roundtrip(figure3_log):
    incident = Incident([figure3_log.records[2], figure3_log.records[3]])
    clone = roundtrip(incident)
    assert clone == incident
    assert clone.sort_key == incident.sort_key
    assert (clone.first, clone.last, clone.wid) == (
        incident.first,
        incident.last,
        incident.wid,
    )


def test_evaluation_stats_roundtrip():
    stats = EvaluationStats(
        operator_evals=3,
        pairs_examined=17,
        incidents_produced=5,
        max_live_incidents=4,
        per_operator={"⊳": 3},
    )
    clone = roundtrip(stats)
    assert clone == stats
    assert clone.registry is None


def test_span_roundtrip():
    tracer = Tracer()
    with tracer.span("evaluate", engine="indexed"):
        with tracer.span("⊳", key=0) as node:
            node.add(pairs=12, incidents=4)
    root = tracer.last_root
    clone = roundtrip(root)
    assert isinstance(clone, Span)
    assert clone.label == root.label
    assert clone.children[0].metrics == {"pairs": 12, "incidents": 4}

