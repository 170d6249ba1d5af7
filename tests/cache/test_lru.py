"""Unit tests for the byte-budgeted LRU map (eviction order, byte
accounting, rejection of oversized entries)."""

import pytest

from repro.cache.lru import LruBytes


def test_get_refreshes_recency_and_counts_hits():
    lru = LruBytes(100)
    lru.put("a", 1, 10)
    lru.put("b", 2, 10)
    assert lru.get("a") == 1
    assert lru.get("missing") is None
    assert (lru.hits, lru.misses) == (1, 1)
    # "a" was refreshed, so "b" is now the cold end
    assert lru.keys() == ["b", "a"]


def test_eviction_is_least_recently_used_first():
    lru = LruBytes(30)
    lru.put("a", 1, 10)
    lru.put("b", 2, 10)
    lru.put("c", 3, 10)
    lru.get("a")  # refresh: cold order is now b, c, a
    lru.put("d", 4, 20)  # needs 20 bytes -> evicts b then c
    assert lru.keys() == ["a", "d"]
    assert lru.evictions == 2
    assert lru.total_bytes == 30


def test_byte_accounting_tracks_puts_replacements_and_evictions():
    lru = LruBytes(100)
    lru.put("a", 1, 40)
    lru.put("b", 2, 30)
    assert lru.total_bytes == 70
    lru.put("a", 9, 10)  # replacement: old 40 bytes released
    assert lru.total_bytes == 40
    assert lru.get("a") == 9


def test_entry_larger_than_budget_is_rejected_not_stored():
    lru = LruBytes(50)
    lru.put("small", 1, 40)
    assert not lru.put("huge", 2, 51)
    assert lru.rejected == 1
    # the resident entry survives: rejecting beats evicting everything
    # for a value that could not stay anyway
    assert lru.keys() == ["small"]
    assert lru.total_bytes == 40


def test_zero_budget_accepts_nothing():
    lru = LruBytes(0)
    assert lru.put("a", 1, 1) is False
    assert lru.put("empty", 2, 0) is True  # zero-byte entry fits a zero budget


def test_peek_does_not_touch_recency_or_counters():
    lru = LruBytes(20)
    lru.put("a", 1, 10)
    lru.put("b", 2, 10)
    assert lru.peek("a") == 1
    assert (lru.hits, lru.misses) == (0, 0)
    assert lru.keys() == ["a", "b"]  # "a" still coldest


def test_negative_sizes_and_budgets_are_rejected():
    with pytest.raises(ValueError):
        LruBytes(-1)
    lru = LruBytes(10)
    with pytest.raises(ValueError):
        lru.put("a", 1, -5)

