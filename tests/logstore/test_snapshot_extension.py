"""A snapshot is its predecessor plus the records appended since.

``LogStore.snapshot()`` runs the whole-log constructor once; every later
epoch's :class:`Log` is :meth:`Log.extended` from the one before, with
Definition 2 checked for the appended tail only.  The result must be the
log the whole-log constructor builds, and a bad tail must fail with the
error the whole-log check raises.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.errors import LogValidationError
from repro.core.model import Log, LogRecord
from repro.logstore import LogStore
from tests.support.histories import histories, play


def assert_same_log(extended: Log, whole: Log) -> None:
    """Every index and provenance field, not just the records."""
    assert extended.records == whole.records
    assert extended == whole and hash(extended) == hash(whole)
    assert extended.wids == whole.wids
    assert extended.activities == whole.activities
    for wid in whole.wids:
        assert extended.instance(wid) == whole.instance(wid)
        assert extended.is_complete(wid) == whole.is_complete(wid)
    index, whole_index = extended.columnar(), whole.columnar()
    for activity in whole.activities:
        rows = index.act_rows(index.act_id_of(activity))
        whole_rows = whole_index.act_rows(whole_index.act_id_of(activity))
        assert [index.rows[row] for row in rows] == [whole_index.rows[row] for row in whole_rows]
    for record in whole.records:
        assert extended.record(record.lsn) is record and record in extended
    assert (extended.epoch, extended.lineage, extended.is_snapshot) == (
        whole.epoch,
        whole.lineage,
        whole.is_snapshot,
    )
    assert extended.fingerprint == whole.fingerprint


@settings(max_examples=60, deadline=None)
@given(histories())
def test_a_snapshot_by_extension_is_the_whole_log_constructors(history):
    store = LogStore()
    for operations in history:
        play(store, operations)
        snapshot = store.snapshot()
        assert snapshot is store.snapshot()  # one object per epoch
        whole = Log(
            tuple(store), epoch=store.epoch, lineage=store.lineage, snapshot=True
        )
        assert_same_log(snapshot, whole)


def _prefix() -> Log:
    """Instance 1 ended, instance 2 open after its second record."""
    store = LogStore()
    first = store.open_instance()
    store.append(first, "A")
    store.append(first, "B")
    store.close_instance(first)
    store.append(store.open_instance(), "A")
    return store.snapshot()


#: (what is wrong with it, the tail, the Definition 2 condition it breaks);
#: the prefix holds lsn 1..6, instance 2 is at is-lsn 2
ADVERSARIAL_TAILS = [
    ("lsn gap", [(8, 2, 3, "A")], 1),
    ("duplicate lsn", [(6, 2, 3, "A")], 1),
    ("is-lsn gap", [(7, 2, 4, "A")], 3),
    ("is-lsn repeated", [(7, 2, 2, "A")], 3),
    ("record after END", [(7, 1, 5, "A")], 4),
    ("END then more, inside the tail", [(7, 2, 3, "END"), (8, 2, 4, "A")], 4),
    ("START at is-lsn 2", [(7, 3, 2, "START")], 2),
    ("START of a running instance", [(7, 2, 3, "START")], 2),
    ("non-START at is-lsn 1", [(7, 3, 1, "A")], 2),
    ("second record bad, first good", [(7, 2, 3, "A"), (8, 3, 1, "B")], 2),
]


@pytest.mark.parametrize(
    "tail, condition",
    [pytest.param(tail, condition, id=what) for what, tail, condition in ADVERSARIAL_TAILS],
)
def test_a_bad_tail_fails_as_the_whole_log_check_does(tail, condition):
    prefix = _prefix()
    assert len(prefix) == 6
    records = [LogRecord(*row) for row in tail]
    with pytest.raises(LogValidationError) as whole:
        Log(prefix.records + tuple(records))
    with pytest.raises(LogValidationError) as by_extension:
        prefix.extended(records)
    assert by_extension.value.condition == whole.value.condition == condition
    assert by_extension.value.lsn == whole.value.lsn
    assert str(by_extension.value) == str(whole.value)


def test_a_good_tail_after_the_bad_ones_still_extends():
    prefix = _prefix()
    extended = prefix.extended([LogRecord(7, 2, 3, "B"), LogRecord(8, 3, 1, "START")])
    assert extended.epoch == 8 and extended.wids == (1, 2, 3)
    assert prefix.epoch == 6 and prefix.wids == (1, 2)  # the predecessor is untouched
