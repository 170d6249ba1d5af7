"""repro.obs — dependency-free observability: tracing, metrics, profiling.

Three layers, each usable on its own:

* :mod:`repro.obs.tracer` — span trees with key-merged per-node spans and
  a zero-cost :data:`NULL_TRACER` default;
* :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket histograms
  behind a :class:`MetricsRegistry`;
* :mod:`repro.obs.export` — human-readable trace rendering plus the
  stable ``repro.obs.*/v1`` JSON schemas and their validators;
* :mod:`repro.obs.profile` — per-node predicted-vs-actual cost reports
  (loaded lazily: it imports the evaluation stack, which itself imports
  ``repro.obs.tracer``);
* :mod:`repro.obs.journal` — the per-query lifecycle JSONL journal
  (``repro.obs.journal/v1``) with resource accounting and the
  slow-query / per-pattern-ranking views behind ``repro-logs events``
  and ``repro-logs top``;
* :mod:`repro.obs.live` — rolling time-windowed telemetry aggregation
  (request outcomes + journal terminal events into one ring of
  mergeable histogram buckets) and the SLO burn-rate engine behind the
  service's admin plane and ``repro-logs slo``;
* :mod:`repro.obs.log` — the ``repro.*`` stdlib-logging hierarchy;
* :mod:`repro.obs.flamegraph` — folded-stacks text and self-contained
  HTML flamegraphs for any recorded span tree;
* :mod:`repro.obs.bench` — the measuring host's fingerprint, stored in
  every ``benchmarks/e2e`` report (the in-process benchmarks are the
  ``benchmarks/bench_*.py`` scripts under pytest-benchmark).

The evaluation engines accept ``tracer=`` / ``metrics=`` and default to
no-ops, so none of this costs anything until switched on (see
``docs/OBSERVABILITY.md``).
"""

from repro.obs.export import (
    METRICS_SCHEMA,
    PROFILE_SCHEMA,
    TRACE_SCHEMA,
    SchemaError,
    metrics_to_dict,
    render_trace,
    trace_to_dict,
    validate_metrics,
    validate_profile,
    validate_trace,
)
from repro.obs.flamegraph import flamegraph_html, folded_stacks
from repro.obs.journal import (
    JOURNAL_SCHEMA,
    QueryJournal,
    ResourceAccount,
    RunRecorder,
    filter_events,
    make_event,
    read_journal,
    slow_queries,
    top_patterns,
    validate_journal,
    validate_journal_event,
)
from repro.obs.live import (
    SloEngine,
    SloObjective,
    SloPolicy,
    WindowedAggregator,
    WindowSnapshot,
    pattern_shape,
)
from repro.obs.log import enable_verbose, get_logger, install_null_handler
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
)
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "TRACE_SCHEMA",
    "METRICS_SCHEMA",
    "PROFILE_SCHEMA",
    "JOURNAL_SCHEMA",
    "SchemaError",
    "QueryJournal",
    "RunRecorder",
    "ResourceAccount",
    "make_event",
    "read_journal",
    "validate_journal",
    "validate_journal_event",
    "filter_events",
    "slow_queries",
    "top_patterns",
    "WindowedAggregator",
    "WindowSnapshot",
    "SloEngine",
    "SloObjective",
    "SloPolicy",
    "pattern_shape",
    "trace_to_dict",
    "metrics_to_dict",
    "render_trace",
    "validate_trace",
    "validate_metrics",
    "validate_profile",
    "folded_stacks",
    "flamegraph_html",
    "get_logger",
    "enable_verbose",
    "install_null_handler",
    # lazy (see __getattr__): "NodeProfile", "ProfileReport", "profile_query"
]

_LAZY_PROFILE = ("NodeProfile", "ProfileReport", "profile_query")


def __getattr__(name: str):
    # profile imports the engines (which import repro.obs.tracer), so it is
    # resolved on first use to keep the package import acyclic
    if name in _LAZY_PROFILE:
        from repro.obs import profile

        return getattr(profile, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
