"""Trace/metrics/profile/bench exporters and their stable JSON schemas.

Four document kinds, each tagged with a ``schema`` field so downstream
tooling can dispatch and version-check:

* ``repro.obs.trace/v1``   — a span tree (:func:`trace_to_dict`);
* ``repro.obs.metrics/v1`` — a registry snapshot (:func:`metrics_to_dict`);
* ``repro.obs.profile/v1`` — a per-node cost breakdown with cost-model
  predictions (:meth:`repro.obs.profile.ProfileReport.to_dict`);
* ``repro.obs.bench/v1``   — a benchmark-suite result with robust timing
  summaries and a machine fingerprint
  (:func:`repro.obs.bench.runner.run_suite`).

Each schema is one field table (``TRACE_FIELDS``, ``METRICS_FIELDS``,
``PROFILE_FIELDS``, ``BENCH_FIELDS``) checked by :func:`repro.fields.walk`;
a ``validate_*`` function raises :class:`SchemaError` on the walk's first
finding, then runs the document's few cross-field checks.  They are what
the CI smoke job and the golden-file tests run.  Timing fields
are the only non-deterministic part of a trace; ``include_timing=False``
omits them, giving byte-stable documents for golden files.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.fields import Field, table, walk
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span

__all__ = [
    "TRACE_SCHEMA",
    "METRICS_SCHEMA",
    "PROFILE_SCHEMA",
    "BENCH_SCHEMA",
    "SchemaError",
    "trace_to_dict",
    "metrics_to_dict",
    "render_trace",
    "validate_trace",
    "validate_metrics",
    "validate_profile",
    "validate_bench",
]

TRACE_SCHEMA = "repro.obs.trace/v1"
METRICS_SCHEMA = "repro.obs.metrics/v1"
PROFILE_SCHEMA = "repro.obs.profile/v1"
BENCH_SCHEMA = "repro.obs.bench/v1"


class SchemaError(ValueError):
    """An exported document does not match its declared schema."""


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def _span_to_dict(span: Span, include_timing: bool) -> dict[str, Any]:
    node: dict[str, Any] = {
        "label": span.label,
        "count": span.count,
        "tags": {k: v for k, v in sorted(span.tags.items())},
        "metrics": {k: span.metrics[k] for k in sorted(span.metrics)},
        "children": [_span_to_dict(c, include_timing) for c in span.children],
    }
    if include_timing:
        node["elapsed_s"] = span.elapsed_s
        node["cpu_s"] = span.cpu_s
    return node


def trace_to_dict(root: Span, *, include_timing: bool = True) -> dict[str, Any]:
    """Serialise one trace tree to the ``repro.obs.trace/v1`` schema."""
    return {"schema": TRACE_SCHEMA, "root": _span_to_dict(root, include_timing)}


def metrics_to_dict(registry: MetricsRegistry) -> dict[str, Any]:
    """Serialise a registry snapshot to the ``repro.obs.metrics/v1`` schema."""
    return {"schema": METRICS_SCHEMA, **registry.snapshot()}


# ---------------------------------------------------------------------------
# human-readable trace trees
# ---------------------------------------------------------------------------

def _span_line(span: Span, show_timing: bool) -> str:
    parts = [f"count={span.count}"]
    for name in ("n1", "n2", "pairs", "incidents"):
        if name in span.metrics:
            parts.append(f"{name}={span.metrics[name]:g}")
    if show_timing:
        parts.append(f"{span.elapsed_s * 1e3:.2f}ms")
    return f"{span.label}  [{' '.join(parts)}]"


def render_trace(root: Span, *, show_timing: bool = True) -> str:
    """ASCII tree of a trace, one line per span.

    Matches the connector style of
    :func:`repro.core.eval.tree.render_tree`.
    """
    lines = [_span_line(root, show_timing)]
    _render_children(root, "", lines, show_timing)
    return "\n".join(lines)


def _render_children(
    span: Span, prefix: str, lines: list[str], show_timing: bool
) -> None:
    children = span.children
    for index, child in enumerate(children):
        last = index == len(children) - 1
        connector, extension = ("└── ", "    ") if last else ("├── ", "│   ")
        lines.append(prefix + connector + _span_line(child, show_timing))
        _render_children(child, prefix + extension, lines, show_timing)


# ---------------------------------------------------------------------------
# validators: one field table per document, walked by repro.fields.walk
# ---------------------------------------------------------------------------

def conform(rows: Mapping[str, Field], doc: Any, what: str) -> None:
    """Raise :class:`SchemaError` on the first way ``doc`` breaks ``rows``."""
    _, found = walk(rows, doc)
    if found:
        path, message = found[0]
        raise SchemaError(f"{what}: {path} {message}" if path else f"{what} {message}")


def _schema(tag: str) -> Field:
    return Field("schema", "str", choices=(tag,), doc="the document's version tag")


#: One span of a trace; ``children`` are spans again.
SPAN_FIELDS = table(
    Field("label", "text", doc="operator symbol or activity"),
    Field("count", "nonneg_int", doc="evaluations folded into the span"),
    Field("tags", "object", doc="string annotations"),
    Field("metrics", ("map", "num"), doc="amounts: n1, n2, pairs, incidents, ..."),
    Field("elapsed_s", "nonneg_num", False, doc="wall time (omitted without timing)"),
    Field("cpu_s", "nonneg_num", False, doc="CPU time (omitted without timing)"),
)
SPAN_FIELDS["children"] = Field("children", ("list", SPAN_FIELDS), doc="child spans")

TRACE_FIELDS = table(_schema(TRACE_SCHEMA), Field("root", SPAN_FIELDS, doc="the root span"))

HISTOGRAM_FIELDS = table(
    Field("buckets", ("list", "num"), doc="upper bounds, unique and ascending"),
    Field("counts", ("list", "nonneg_int"), doc="per bucket, then the overflow bucket"),
    Field("sum", "num", doc="sum of the observations"),
    Field("count", "nonneg_int", doc="number of observations"),
)

METRICS_FIELDS = table(
    _schema(METRICS_SCHEMA),
    Field("counters", ("map", "nonneg_int"), doc="monotonic counts"),
    Field("gauges", ("map", "num"), doc="last or peak values"),
    Field("histograms", ("map", HISTOGRAM_FIELDS), doc="bucketed observations"),
)

#: One node of a profile; operator nodes carry every row, leaves only
#: the required ones.
PROFILE_NODE_FIELDS = table(
    Field("path", "text", doc="root, root.0, root.0.1, ..."),
    Field("label", "text", doc="operator symbol or activity"),
    Field("kind", "text", choices=("operator", "leaf"), doc="operator or leaf"),
    Field("count", "int", doc="evaluations of the node"),
    Field("incidents", "num", doc="incidents the node produced"),
    Field("elapsed_s", "num", doc="wall time in the node and below"),
    Field("self_s", "num", doc="wall time in the node alone"),
    Field("operator", "text", False, doc="operator symbol"),
    Field("n1", "num", False, doc="left input size"),
    Field("n2", "num", False, doc="right input size"),
    Field("pairs", "num", False, doc="pairs examined"),
    Field("predicted_pairs", "num", False, doc="the cost model's pair estimate"),
)

PROFILE_FIELDS = table(
    _schema(PROFILE_SCHEMA),
    Field("engine", "text", doc="engine that ran the query"),
    Field("pattern", "text", doc="pattern as written"),
    Field("optimized", "text", doc="pattern as evaluated"),
    Field("totals", table(*(
        Field(name, "num", doc=f"whole-query {name}")
        for name in ("operator_evals", "pairs_examined", "incidents_produced",
                     "max_live_incidents", "predicted_pairs", "elapsed_s")
    )), doc="whole-query totals"),
    Field("nodes", ("nonempty_list", PROFILE_NODE_FIELDS), doc="per-node costs"),
    Field("hottest", table(Field("path", "text"), Field("label", "any")),
          doc="the node with the most self time"),
)

BENCH_STATS_FIELDS = table(
    *(Field(name, "nonneg_num", doc=f"{name[:-2]} of the kept samples")
      for name in ("median_s", "min_s", "max_s", "mean_s", "iqr_s", "mad_s")),
    Field("n", "pos_int", doc="kept samples (the median always survives)"),
    Field("rejected", "nonneg_int", doc="samples rejected as outliers"),
)

BENCH_CASE_FIELDS = table(
    Field("name", "str", doc="unique case name"),
    Field("suites", ("list", "text"), doc="suites the case belongs to"),
    Field("params", "object", doc="the case's parameters"),
    Field("samples_s", ("nonempty_list", "nonneg_num"), doc="timed repetitions"),
    Field("stats", BENCH_STATS_FIELDS, doc="robust summary of the samples"),
)

BENCH_FIELDS = table(
    _schema(BENCH_SCHEMA),
    Field("suite", "str", doc="suite name"),
    Field("created_unix", "nonneg_int", doc="when the run finished"),
    Field("machine", table(*(
        Field(name, "any", doc="machine fingerprint")
        for name in ("platform", "machine", "python", "implementation", "cpu_count")
    )), doc="machine fingerprint"),
    Field("config", table(
        Field("warmup", "any", doc="untimed repetitions"),
        Field("repeats", "pos_int", doc="timed repetitions"),
        Field("mad_k", "any", doc="outlier cut in MADs"),
    ), doc="runner configuration"),
    Field("cases", ("nonempty_list", BENCH_CASE_FIELDS), doc="one entry per case"),
)


def validate_trace(doc: Any) -> None:
    """Raise :class:`SchemaError` unless ``doc`` is a valid trace export."""
    conform(TRACE_FIELDS, doc, "trace document")


def validate_metrics(doc: Any) -> None:
    """Raise :class:`SchemaError` unless ``doc`` is a valid metrics export."""
    conform(METRICS_FIELDS, doc, "metrics document")
    for name, hist in doc["histograms"].items():
        buckets, counts = hist["buckets"], hist["counts"]
        if len(counts) != len(buckets) + 1:
            raise SchemaError(f"histogram {name!r}: need len(buckets)+1 counts (overflow bucket)")
        if list(buckets) != sorted(set(buckets)):
            raise SchemaError(f"histogram {name!r}: boundaries must be unique and ascending")
        if sum(counts) != hist["count"]:
            raise SchemaError(f"histogram {name!r}: counts must sum to 'count'")


def validate_profile(doc: Any) -> None:
    """Raise :class:`SchemaError` unless ``doc`` is a valid profile export."""
    conform(PROFILE_FIELDS, doc, "profile document")
    for node in doc["nodes"]:
        missing = PROFILE_NODE_FIELDS.keys() - node.keys()
        if node["kind"] == "operator" and missing:
            raise SchemaError(f"operator node {node['path']!r} is missing {sorted(missing)}")
    if doc["hottest"]["path"] not in {node["path"] for node in doc["nodes"]}:
        raise SchemaError("hottest.path must name an exported node")


def validate_bench(doc: Any) -> None:
    """Raise :class:`SchemaError` unless ``doc`` is a valid bench export."""
    conform(BENCH_FIELDS, doc, "bench document")
    seen: set[str] = set()
    for case in doc["cases"]:
        name, stats = case["name"], case["stats"]
        if name in seen:
            raise SchemaError(f"duplicate bench case {name!r}")
        seen.add(name)
        if stats["n"] + stats["rejected"] != len(case["samples_s"]):
            raise SchemaError(f"case {name!r}: kept + rejected must equal the sample count")
        if not stats["min_s"] <= stats["median_s"] <= stats["max_s"]:
            raise SchemaError(f"case {name!r}: median must lie within [min, max]")
