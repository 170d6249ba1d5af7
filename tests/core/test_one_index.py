"""A log and its columnar index are one object graph with no cycle.

The :class:`ColumnarLog` is the only per-instance / per-activity index of
a :class:`Log`, built with it, and it holds no reference back to the log:
however a log is built, the pair is freed by reference counting the
moment the last reference to the log goes, and a pickled log is rebuilt
from its records with its provenance.
"""

from __future__ import annotations

import gc
import pickle
from collections import Counter

import pytest

from repro.columnar import ColumnarLog
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.model import Log, LogRecord
from repro.core.parser import parse
from repro.logstore import LogStore, read_jsonl, write_jsonl
from tests.logstore.test_snapshot_extension import assert_same_log

TRACES = {1: ["A", "B", "A"], 2: ["B", "A"], 3: ["A", "A", "B", "C"]}


def _store() -> LogStore:
    return LogStore.from_log(Log.from_traces(TRACES, interleave=True))


def _from_traces(tmp_path):
    return Log.from_traces(TRACES)


def _read_jsonl(tmp_path):
    return read_jsonl(tmp_path / "log.jsonl")


def _snapshot(tmp_path):
    return _store().snapshot()


def _extended(tmp_path):
    base = Log.from_traces(TRACES)
    wid = max(base.wids) + 1
    return base.extended(
        [
            LogRecord(lsn=len(base) + 1, wid=wid, is_lsn=1, activity="START"),
            LogRecord(lsn=len(base) + 2, wid=wid, is_lsn=2, activity="A"),
        ]
    )


def _project(tmp_path):
    return Log.from_traces(TRACES).project([1, 3])


def allocated() -> Counter:
    """How many ``Log`` and ``ColumnarLog`` objects the collector sees."""
    return Counter(type(o).__name__ for o in gc.get_objects() if type(o) in (Log, ColumnarLog))


@pytest.mark.parametrize(
    "build", [_from_traces, _read_jsonl, _snapshot, _extended, _project], ids=lambda b: b.__name__
)
def test_a_log_and_its_columnar_view_are_freed_by_reference_counting(build, tmp_path):
    write_jsonl(Log.from_traces(TRACES), tmp_path / "log.jsonl")
    gc.collect()
    gc.disable()
    try:
        before = allocated()
        log = build(tmp_path)
        columnar = log.columnar()
        assert columnar is log.columnar() and len(columnar) == len(log)
        assert allocated() - before == Counter({"ColumnarLog": 1, "Log": 1})
        del log, columnar
        assert allocated() == before
    finally:
        gc.enable()


PATTERNS = ("A", "A -> B", "A ; B", "(A | C) & B", "!B -> A")


def test_a_pickled_snapshot_keeps_its_provenance_and_its_answers():
    store = _store()
    store.snapshot()
    wid = store.open_instance()
    store.append(wid, "A")
    store.append(wid, "B")
    snapshot = store.snapshot()  # extended from the first
    clone = pickle.loads(pickle.dumps(snapshot))
    assert (clone.epoch, clone.lineage, clone.is_snapshot) == (
        snapshot.epoch,
        snapshot.lineage,
        True,
    )
    assert clone == snapshot and clone.fingerprint == snapshot.fingerprint
    assert_same_log(
        clone, Log(clone.records, epoch=clone.epoch, lineage=clone.lineage, snapshot=True)
    )
    engine = VectorizedEngine()
    for text in PATTERNS:
        pattern = parse(text)
        assert engine.evaluate(clone, pattern).to_rows() == engine.evaluate(
            snapshot, pattern
        ).to_rows(), text
