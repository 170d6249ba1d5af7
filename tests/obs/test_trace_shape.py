"""Cross-engine trace-shape property (hypothesis).

All engines must agree on *results* (already covered by
tests/test_properties.py against the Definition 4 oracle) and, with
tracing enabled, must emit trace trees with the *same node structure*:
one span per pattern-tree node, labelled identically, in the same
order.  Timing and per-engine cost metrics (pairs, n1/n2) are allowed
to differ — the index prunes pairs — but the shape is the contract that
lets profiles be compared across engines.
"""

from hypothesis import given, settings

from repro.core.eval.incremental import IncrementalEvaluator
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.obs.tracer import Tracer

from tests.test_properties import logs, patterns


def trace_shape(span):
    """Structural projection of a span tree: labels + child order only."""
    return (span.label, tuple(trace_shape(child) for child in span.children))


def expected_shape(pattern):
    """The shape every engine must produce: the pattern tree itself."""
    from repro.core.eval.base import node_label
    from repro.core.pattern import BinaryPattern

    if isinstance(pattern, BinaryPattern):
        children = (expected_shape(pattern.left), expected_shape(pattern.right))
    else:
        children = ()
    return (node_label(pattern), children)


@settings(max_examples=60, deadline=None)
@given(logs(), patterns())
def test_engines_emit_identical_trace_shapes(log, pattern):
    shapes = {}
    results = {}
    for name, engine_cls in (("naive", NaiveEngine), ("indexed", VectorizedEngine)):
        tracer = Tracer()
        results[name] = engine_cls(tracer=tracer).evaluate(log, pattern)
        root = tracer.last_root
        assert root.label == "evaluate"
        assert len(root.children) == 1
        shapes[name] = trace_shape(root.children[0])

    tracer = Tracer()
    evaluator = IncrementalEvaluator(pattern, tracer=tracer)
    for record in log.records:
        evaluator.append(record)
    root = tracer.last_root
    assert root is not None and len(root.children) == 1
    shapes["incremental"] = trace_shape(root.children[0])
    results["incremental"] = evaluator.incidents()

    want = expected_shape(pattern)
    assert shapes["naive"] == shapes["indexed"] == shapes["incremental"] == want
    assert results["naive"] == results["indexed"] == results["incremental"]


@settings(max_examples=60, deadline=None)
@given(logs(), patterns())
def test_traced_pairs_reconcile_with_stats(log, pattern):
    for engine_cls in (NaiveEngine, VectorizedEngine):
        tracer = Tracer()
        engine = engine_cls(tracer=tracer)
        engine.evaluate(log, pattern)
        assert tracer.last_root.total("pairs") == engine.last_stats.pairs_examined


@settings(max_examples=60, deadline=None)
@given(logs(), patterns())
def test_tracing_does_not_change_results(log, pattern):
    plain = NaiveEngine().evaluate(log, pattern)
    traced = NaiveEngine(tracer=Tracer()).evaluate(log, pattern)
    assert plain == traced
