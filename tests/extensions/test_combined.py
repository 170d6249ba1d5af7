"""Interaction tests: guards + windows + negation + the whole stack
(parser, engines, incremental, counting, optimizer) combined."""

import pytest

from repro.core.eval.incremental import IncrementalEvaluator
from repro.core.eval.vectorized import VectorizedEngine, supports_counting
from repro.core.eval.naive import NaiveEngine
from repro.core.incident import reference_incidents
from repro.core.model import Log, LogRecord, START
from repro.core.optimizer import Optimizer
from repro.core.parser import parse


def priced_log():
    """Two instances with price attributes for guard interactions."""
    rows = [
        (1, 1, 1, START),
        (2, 1, 2, "Quote", {}, {"price": 120}),
        (3, 1, 3, "Quote", {}, {"price": 80}),
        (4, 2, 1, START),
        (5, 1, 4, "Order", {"price": 80}, {}),
        (6, 2, 2, "Quote", {}, {"price": 300}),
        (7, 1, 5, "Ship", {}, {}),
        (8, 2, 3, "Order", {"price": 300}, {}),
    ]
    return Log.from_tuples(rows)


COMBINED_QUERIES = [
    'Quote[out.price > 100] -> Order',
    'Quote[out.price <= 100] ; Order',
    'Quote ->[2] Order',
    'Quote[out.price > 100] ->[2] Order',
    '!Quote ; Quote[out.price > 100]',
    '(Quote[out.price > 100] | Quote[out.price <= 100]) -> Ship',
    'Quote[out.price > 100] & Order[in.price > 100]',
]


@pytest.mark.parametrize("text", COMBINED_QUERIES)
def test_all_evaluation_paths_agree(text):
    log = priced_log()
    pattern = parse(text)
    expected = reference_incidents(log, pattern)
    assert NaiveEngine().evaluate(log, pattern) == expected, "naive"
    assert VectorizedEngine().evaluate(log, pattern) == expected, "indexed"
    streaming = IncrementalEvaluator(pattern)
    streaming.extend(log)
    assert streaming.incidents() == expected, "incremental"
    if supports_counting(pattern):
        assert VectorizedEngine().count(log, pattern) == len(expected), "counting"
    plan = Optimizer.for_log(log).optimize(pattern)
    assert reference_incidents(log, plan.optimized) == expected, "optimizer"


def test_expected_results_by_hand():
    log = priced_log()
    # Quote[>100] -> Order: wid1 (l2, l5); wid2 (l6, l8)
    assert reference_incidents(
        log, parse("Quote[out.price > 100] -> Order")
    ).lsn_sets() == {frozenset({2, 5}), frozenset({6, 8})}
    # cheap quote immediately before the order: wid1 only (l3, l5)
    assert reference_incidents(
        log, parse("Quote[out.price <= 100] ; Order")
    ).lsn_sets() == {frozenset({3, 5})}
    # windowed: the expensive wid1 quote is 2 positions from the order
    assert reference_incidents(
        log, parse("Quote[out.price > 100] ->[2] Order")
    ).lsn_sets() == {frozenset({2, 5}), frozenset({6, 8})}


def test_guarded_window_roundtrip_via_text():
    pattern = parse('Quote[out.price > 100] ->[2] Order')
    assert parse(str(pattern)) == pattern


def test_incremental_window_with_interleaving():
    """Windows count is-lsn gaps, not global gaps — interleaved instances
    must not confuse the streaming evaluator."""
    log = priced_log()
    pattern = parse("Quote ->[1] Order")
    streaming = IncrementalEvaluator(pattern, log)
    # wid2: Quote(is 2) -> Order(is 3) adjacent; wid1: Quote(is 3)->Order(is 4)
    assert streaming.incidents().lsn_sets() == {
        frozenset({3, 5}), frozenset({6, 8}),
    }
