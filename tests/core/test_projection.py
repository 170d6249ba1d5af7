"""Lsn-preserving wid projections with ``Log.project`` (``tests/test_properties.py``
holds the union-of-projections property)."""

from repro.logstore.store import LogStore


def test_logstore_extract_and_counts():
    store = LogStore()
    for _ in range(3):
        wid = store.open_instance()
        store.append(wid, "A")
        store.append(wid, "B")
        store.close_instance(wid)
    counts = store.wid_record_counts()
    assert counts == {1: 4, 2: 4, 3: 4}  # START + A + B + END

    extracted = store.snapshot().project([2])
    assert sorted({r.wid for r in extracted}) == [2]
    # original global lsns survive the projection
    assert [r.lsn for r in extracted] == [
        r.lsn for r in store if r.wid == 2
    ]


def test_log_project_preserves_identity(figure3_log):
    projected = figure3_log.project([2])
    assert sorted({r.wid for r in projected}) == [2]
    for record in projected:
        assert figure3_log.records[record.lsn - 1] is record
