"""Exporter stability: the JSON trace schema is a contract.

The golden file pins the exact timing-free serialisation of a known
evaluation so that any accidental schema change (renamed key, reordered
children, retyped metric) fails loudly here before it breaks downstream
tooling.
"""

import json
from pathlib import Path

import pytest

from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.model import Log
from repro.core.options import EngineOptions
from repro.core.parser import parse
from repro.obs.export import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    SchemaError,
    metrics_to_dict,
    render_trace,
    trace_to_dict,
    validate_metrics,
    validate_profile,
    validate_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import profile_query
from repro.obs.tracer import Tracer

GOLDEN = Path(__file__).parent / "golden" / "trace_simple.json"


def _traced_evaluation():
    log = Log.from_traces([["A", "B", "A", "B"]])
    tracer = Tracer()
    NaiveEngine(tracer=tracer).evaluate(log, parse("A -> B"))
    return tracer.last_root


class TestTraceExport:
    def test_matches_golden_file(self):
        document = trace_to_dict(_traced_evaluation(), include_timing=False)
        assert document == json.loads(GOLDEN.read_text(encoding="utf-8"))

    def test_golden_file_validates(self):
        validate_trace(json.loads(GOLDEN.read_text(encoding="utf-8")))

    def test_timing_fields_are_optional_and_nonnegative(self):
        document = trace_to_dict(_traced_evaluation())
        validate_trace(document)
        assert document["root"]["elapsed_s"] >= 0.0
        assert document["root"]["cpu_s"] >= 0.0
        timing_free = trace_to_dict(_traced_evaluation(), include_timing=False)
        assert "elapsed_s" not in timing_free["root"]
        assert json.dumps(timing_free, sort_keys=True) == json.dumps(
            trace_to_dict(_traced_evaluation(), include_timing=False),
            sort_keys=True,
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("schema"),
            lambda d: d.update(schema="repro.obs.trace/v2"),
            lambda d: d.pop("root"),
            lambda d: d["root"].pop("label"),
            lambda d: d["root"].pop("children"),
            lambda d: d["root"]["metrics"].update(pairs="twelve"),
            lambda d: d["root"].update(count=-1),
        ],
    )
    def test_mutations_fail_validation(self, mutate):
        document = trace_to_dict(_traced_evaluation(), include_timing=False)
        mutate(document)
        with pytest.raises(SchemaError):
            validate_trace(document)

    def test_schema_tags(self):
        assert trace_to_dict(_traced_evaluation())["schema"] == TRACE_SCHEMA
        assert metrics_to_dict(MetricsRegistry())["schema"] == METRICS_SCHEMA


class TestMetricsExport:
    def test_roundtrip_validates(self):
        registry = MetricsRegistry()
        registry.counter("engine.pairs_examined").inc(7)
        registry.gauge("engine.max_live_incidents").set_max(3)
        registry.histogram("t", buckets=(0.1, 1.0)).observe(0.5)
        validate_metrics(metrics_to_dict(registry))

    def test_histogram_count_mismatch_fails(self):
        registry = MetricsRegistry()
        registry.histogram("t", buckets=(0.1,)).observe(0.05)
        document = metrics_to_dict(registry)
        document["histograms"]["t"]["count"] = 99
        with pytest.raises(SchemaError):
            validate_metrics(document)


class TestProfileExport:
    def test_profile_document_validates(self):
        log = Log.from_traces([["A", "B", "C", "A", "B"]] * 3, interleave=True)
        report = profile_query(log, "A -> (B | C)", EngineOptions())
        document = report.to_dict()
        validate_profile(document)
        assert document["totals"]["pairs_examined"] == report.stats.pairs_examined

    def test_hottest_must_reference_a_node(self):
        log = Log.from_traces([["A", "B"]])
        document = profile_query(log, "A -> B", EngineOptions(optimize=False)).to_dict()
        document["hottest"]["path"] = "root.9"
        with pytest.raises(SchemaError):
            validate_profile(document)


def test_render_trace_is_one_line_per_span():
    root = _traced_evaluation()
    text = render_trace(root, show_timing=False)
    assert len(text.splitlines()) == sum(1 for _ in root.walk())
    assert "⊳" in text and "pairs=4" in text


def test_engines_export_identical_trace_shapes():
    # Engines may examine different numbers of pairs (the index prunes),
    # but the exported tree structure and incident counts must agree.
    def shape(node):
        return (
            node["label"],
            node["metrics"].get("incidents"),
            tuple(shape(child) for child in node["children"]),
        )

    log = Log.from_traces([["A", "B", "A", "B"]])
    pattern = parse("A -> B")
    shapes = []
    for engine_cls in (NaiveEngine, VectorizedEngine):
        tracer = Tracer()
        engine_cls(tracer=tracer).evaluate(log, pattern)
        document = trace_to_dict(tracer.last_root, include_timing=False)
        shapes.append(shape(document["root"]))
    assert shapes[0] == shapes[1]


@pytest.mark.parametrize(
    "validate, build, mutate",
    [
        (validate_trace, lambda: trace_to_dict(_traced_evaluation()),
         lambda d: d["root"].update(count=True)),
        (validate_trace, lambda: trace_to_dict(_traced_evaluation()),
         lambda d: d["root"].update(elapsed_s=True)),
        (validate_trace, lambda: trace_to_dict(_traced_evaluation()),
         lambda d: d["root"]["children"][0].update(cpu_s=False)),
        (validate_metrics, lambda: metrics_to_dict(MetricsRegistry()),
         lambda d: d["counters"].update(pairs=True)),
    ],
    ids=["span-count", "span-elapsed", "span-cpu", "counter"],
)
def test_booleans_are_not_numbers(validate, build, mutate):
    document = build()
    validate(document)
    mutate(document)
    with pytest.raises(SchemaError):
        validate(document)
