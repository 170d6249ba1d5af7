"""StoreCatalog: registration, config/directory loading, live appends."""

from __future__ import annotations

import json
import sys

import pytest

from repro.core.errors import LogStoreError, ReproError
from repro.logstore import LogStore, write_jsonl
from repro.service import StoreCatalog
from repro.service.schemas import parse_append_request


def _store_with(activities: list[str]) -> LogStore:
    store = LogStore()
    wid = store.open_instance()
    for activity in activities:
        store.append(wid, activity)
    store.close_instance(wid)
    return store


def test_add_and_get() -> None:
    catalog = StoreCatalog()
    store = _store_with(["A", "B"])
    catalog.add("one", store)
    assert catalog.get("one") is store
    assert "one" in catalog
    assert catalog.names() == ("one",)


def test_duplicate_name_refused() -> None:
    catalog = StoreCatalog()
    catalog.add("one", _store_with(["A"]))
    with pytest.raises(ReproError, match="already registered"):
        catalog.add("one", _store_with(["B"]))


def test_unknown_name_raises_logstore_error() -> None:
    with pytest.raises(LogStoreError, match="unknown log"):
        StoreCatalog().get("nope")


def test_add_log_seeds_live_store(clinic_log) -> None:
    catalog = StoreCatalog()
    store = catalog.add_log("clinic", clinic_log)
    assert len(store) == len(clinic_log.records)
    assert store.epoch == len(clinic_log.records)
    listing = catalog.describe()
    assert listing[0]["name"] == "clinic"
    assert listing[0]["records"] == len(clinic_log.records)
    assert listing[0]["epoch"] == store.epoch


def test_from_directory(tmp_path, clinic_log) -> None:
    write_jsonl(clinic_log, tmp_path / "clinic.jsonl")
    write_jsonl(clinic_log, tmp_path / "copy.jsonl")
    (tmp_path / "notes.txt").write_text("ignored")
    catalog = StoreCatalog.from_directory(tmp_path)
    assert catalog.names() == ("clinic", "copy")


def test_from_directory_empty_refused(tmp_path) -> None:
    with pytest.raises(ReproError, match="no log files"):
        StoreCatalog.from_directory(tmp_path)


def test_from_config_json(tmp_path, clinic_log) -> None:
    write_jsonl(clinic_log, tmp_path / "clinic.jsonl")
    config = tmp_path / "catalog.json"
    config.write_text(json.dumps({"logs": {"clinic": "clinic.jsonl"}}))
    catalog = StoreCatalog.from_config(config)
    assert catalog.names() == ("clinic",)


def test_from_config_missing_file_refused(tmp_path) -> None:
    config = tmp_path / "catalog.json"
    config.write_text(json.dumps({"logs": {"clinic": "missing.jsonl"}}))
    with pytest.raises(ReproError, match="missing file"):
        StoreCatalog.from_config(config)


def test_from_config_toml(tmp_path, clinic_log) -> None:
    write_jsonl(clinic_log, tmp_path / "clinic.jsonl")
    config = tmp_path / "catalog.toml"
    config.write_text('[logs]\nclinic = "clinic.jsonl"\n')
    if sys.version_info >= (3, 11):
        catalog = StoreCatalog.from_config(config)
        assert catalog.names() == ("clinic",)
    else:
        with pytest.raises(ReproError, match="JSON"):
            StoreCatalog.from_config(config)


def test_append_batch_bumps_epoch() -> None:
    catalog = StoreCatalog()
    catalog.add("log", _store_with(["A"]))
    before = catalog.get("log").epoch
    request = parse_append_request(
        {
            "records": [
                {"activity": "START"},
                {"activity": "A", "wid": 2},
                {"activity": "END", "wid": 2},
            ]
        }
    )
    result = catalog.append_batch("log", request.records)
    assert result["appended"] == 1
    assert result["opened"] == 1
    assert result["closed"] == 1
    assert result["epoch"] == before + 3
    assert catalog.get("log").epoch == before + 3


def test_append_to_closed_instance_raises() -> None:
    catalog = StoreCatalog()
    catalog.add("log", _store_with(["A"]))
    request = parse_append_request(
        {"records": [{"activity": "B", "wid": 1}]}
    )
    with pytest.raises(LogStoreError, match="closed"):
        catalog.append_batch("log", request.records)


def _state(catalog: StoreCatalog) -> tuple:
    store = catalog.get("log")
    return store.epoch, len(store), store.open_instances, catalog.describe()


@pytest.mark.parametrize(
    "bad",
    [
        {"activity": "A", "wid": 99},  # unknown instance
        {"activity": "A", "wid": 1},  # closed before the batch
        {"activity": "START", "wid": 7},  # opened twice by the batch itself
        {"activity": "START", "wid": 1},  # already in the store
        {"activity": "END", "wid": 99},
    ],
)
def test_a_failing_batch_changes_nothing(bad) -> None:
    catalog = StoreCatalog()
    catalog.add("log", _store_with(["A"]))
    before = _state(catalog)
    request = parse_append_request(
        {"records": [{"activity": "START", "wid": 7}, {"activity": "A", "wid": 7}, bad]}
    )
    with pytest.raises(LogStoreError):
        catalog.append_batch("log", request.records)
    assert _state(catalog) == before
    # the same batch without its bad record goes through, as one epoch step
    result = catalog.append_batch("log", request.records[:2])
    assert result["epoch"] == before[0] + 2 and result["wids"] == [7, 7]
    assert catalog.get("log").open_instances == (7,)


def test_a_batch_sees_its_own_earlier_records() -> None:
    catalog = StoreCatalog()
    catalog.add("log", _store_with(["A"]))
    closed_then_used = parse_append_request(
        {
            "records": [
                {"activity": "START"},
                {"activity": "END", "wid": 2},
                {"activity": "A", "wid": 2},
            ]
        }
    )
    with pytest.raises(LogStoreError, match="instance 2 is closed"):
        catalog.append_batch("log", closed_then_used.records)
    assert catalog.get("log").epoch == 3


def test_snapshots_never_hold_part_of_a_batch() -> None:
    """Readers that snapshot a store while batches land on it see every
    batch whole: the epoch only ever stands between two batches."""
    import threading

    catalog = StoreCatalog()
    catalog.add("log", _store_with(["A"]))
    store = catalog.get("log")
    base, batch, rounds = store.epoch, 40, 150
    done = threading.Event()
    torn: list[int] = []

    def writer() -> None:
        try:
            for _ in range(rounds):
                wid = len(store.wid_record_counts()) + 1
                records = [{"activity": "START", "wid": wid}]
                records += [{"activity": "A", "wid": wid}] * (batch - 2)
                records.append({"activity": "END", "wid": wid})
                catalog.append_batch("log", parse_append_request({"records": records}).records)
        finally:
            done.set()

    def reader() -> None:
        while not done.is_set():
            snapshot = store.snapshot()
            if (snapshot.epoch - base) % batch or len(snapshot) != snapshot.epoch:
                torn.append(snapshot.epoch)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert torn == []
    assert store.epoch == base + rounds * batch
