"""Flamegraph export: folded stacks and the self-contained HTML page."""

import json
import re

import pytest

from repro.core.eval.vectorized import VectorizedEngine
from repro.core.model import Log
from repro.core.parser import parse
from repro.obs import Tracer, flamegraph_html, folded_stacks, trace_to_dict
from repro.obs.tracer import Span


def _tree() -> Span:
    """root(10ms) -> [scan(4ms) -> probe(1ms), join(3ms)]; 'a;b' label."""
    root = Span("evaluate", tags={"engine": "indexed"})
    root.count, root.elapsed_s = 1, 0.010
    scan = root.child("scan a;b")
    scan.count, scan.elapsed_s = 2, 0.004
    scan.add(pairs=12)
    probe = scan.child("probe")
    probe.count, probe.elapsed_s = 2, 0.001
    join = root.child("join")
    join.count, join.elapsed_s = 1, 0.003
    return root


def _traced_evaluation() -> Span:
    log = Log.from_traces([["A", "B", "A"], ["B", "A"]])
    tracer = Tracer()
    VectorizedEngine(tracer=tracer).evaluate(log, parse("A -> B"))
    assert tracer.last_root is not None
    return tracer.last_root


class TestFoldedStacks:
    def test_one_line_per_span_preorder(self):
        root = _tree()
        lines = folded_stacks(root).strip().splitlines()
        assert len(lines) == len(list(root.walk()))
        stacks = [line.rsplit(" ", 1)[0] for line in lines]
        # semicolon inside a label is escaped to keep the format parseable
        assert stacks == [
            "evaluate",
            "evaluate;scan a,b",
            "evaluate;scan a,b;probe",
            "evaluate;join",
        ]

    def test_values_are_self_time_microseconds(self):
        root = _tree()
        values = {
            line.rsplit(" ", 1)[0]: int(line.rsplit(" ", 1)[1])
            for line in folded_stacks(root).strip().splitlines()
        }
        assert values["evaluate"] == 3000  # 10ms - (4ms + 3ms) children
        assert values["evaluate;scan a,b"] == 3000
        assert values["evaluate;scan a,b;probe"] == 1000
        # per-stack self times sum back to the root wall time
        assert sum(values.values()) == pytest.approx(
            round(root.elapsed_s * 1e6), abs=len(values)
        )

    def test_real_trace_round_trips(self):
        root = _traced_evaluation()
        lines = folded_stacks(root).strip().splitlines()
        assert len(lines) == len(list(root.walk()))
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert stack and int(value) >= 0


class TestFlamegraphHtml:
    def test_node_set_equals_span_tree(self):
        root = _tree()
        html = flamegraph_html(root)
        assert html.count('class="frame"') == len(list(root.walk()))

    def test_self_contained(self):
        html = flamegraph_html(_tree(), title="t & t")
        assert html.startswith("<!DOCTYPE html>")
        # no external fetches of any kind
        for marker in ("http://", "https://", "<link", "src="):
            assert marker not in html
        assert "t &amp; t" in html

    def test_embedded_trace_json_recovers_exact_tree(self):
        root = _tree()
        html = flamegraph_html(root)
        match = re.search(
            r'<script type="application/json" id="trace">(.*?)</script>',
            html,
            re.DOTALL,
        )
        assert match is not None
        assert json.loads(match.group(1)) == trace_to_dict(root)

    def test_child_widths_fit_inside_parent(self):
        html = flamegraph_html(_tree())
        widths = [float(w) for w in re.findall(r"width:([0-9.]+)%", html)]
        assert widths[0] == pytest.approx(100.0)
        assert all(0.0 <= w <= 100.0 for w in widths)
        # scan=4ms and join=3ms of a 10ms root
        assert widths[1] == pytest.approx(40.0, abs=0.01)
        assert widths[3] == pytest.approx(30.0, abs=0.01)

    def test_zero_time_tree_renders_every_span(self):
        root = Span("root")
        root.child("a")
        root.child("b")
        html = flamegraph_html(root)
        assert html.count('class="frame"') == 3
        widths = [float(w) for w in re.findall(r"width:([0-9.]+)%", html)]
        # zero-time children share the row equally instead of vanishing
        assert widths[1] == pytest.approx(50.0)
        assert widths[2] == pytest.approx(50.0)

    def test_overcommitted_children_are_normalised(self):
        # merged shard trees can sum child wall time above the parent's
        root = Span("root")
        root.elapsed_s = 0.010
        for _ in range(2):
            root.child("shard").elapsed_s = 0.008
        html = flamegraph_html(root)
        widths = [float(w) for w in re.findall(r"width:([0-9.]+)%", html)]
        assert sum(widths[1:]) <= 100.0 + 1e-6

    def test_real_trace_html(self):
        root = _traced_evaluation()
        html = flamegraph_html(root)
        assert html.count('class="frame"') == len(list(root.walk()))
        assert "application/json" in html
