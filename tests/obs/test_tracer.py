"""Unit tests for the span tracer (repro.obs.tracer)."""

import pytest

from repro.obs.tracer import NULL_SPAN, NULL_TRACER, Span, Tracer


class TestSpanTree:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                with tracer.span("a1"):
                    pass
            with tracer.span("b"):
                pass
        assert tracer.last_root is root
        assert [c.label for c in root.children] == ["a", "b"]
        assert [c.label for c in a.children] == ["a1"]
        assert [s.label for s in root.walk()] == ["root", "a", "a1", "b"]

    def test_unkeyed_spans_append_siblings(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            for _ in range(3):
                with tracer.span("child"):
                    pass
        assert len(root.children) == 3
        assert all(c.count == 1 for c in root.children)

    def test_keyed_spans_merge_and_accumulate(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            for i in range(5):
                with tracer.span("node", key=0) as node:
                    node.add(pairs=2)
        assert len(root.children) == 1
        assert node.count == 5
        assert node.metrics["pairs"] == 10

    def test_keyed_roots_merge_across_entries(self):
        tracer = Tracer()
        for _ in range(4):
            with tracer.span("evaluate", key=()) as root:
                pass
        assert len(tracer.roots) == 1
        assert root.count == 4
        assert tracer.last_root is root

    def test_timing_accumulates_and_is_nonnegative(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("inner", key=0):
                sum(range(1000))
            with tracer.span("inner", key=0) as inner:
                sum(range(1000))
        assert inner.count == 2
        assert root.elapsed_s >= inner.elapsed_s >= 0.0
        assert root.self_s >= 0.0

    def test_tags_and_metric_totals(self):
        tracer = Tracer()
        with tracer.span("root", engine="naive") as root:
            root.set_tag("pattern", "A -> B")
            with tracer.span("child") as child:
                child.add(pairs=3, incidents=1)
        assert root.tags == {"engine": "naive", "pattern": "A -> B"}
        assert root.total("pairs") == 3
        assert root.total("incidents") == 1

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("root"):
                raise ValueError("boom")
        assert tracer.last_root is not None
        assert tracer._stack == []


class TestNullTracer:
    def test_span_returns_the_shared_noop_span(self):
        with NULL_TRACER.span("anything", key=1, tag="x") as span:
            assert span is NULL_SPAN
            span.add(pairs=1)
            span.set_tag("a", "b")
        assert NULL_SPAN.metrics == {}
        assert NULL_SPAN.tags == {}
        assert NULL_TRACER.last_root is None
        assert NULL_TRACER.roots == ()

    def test_null_span_reads_as_empty_leaf(self):
        assert NULL_SPAN.children == ()
        assert NULL_SPAN.count == 0

    def test_enabled_flags(self):
        assert Tracer().enabled is True
        assert NULL_TRACER.enabled is False


def test_span_repr_mentions_label():
    span = Span("⊳")
    assert "⊳" in repr(span)
