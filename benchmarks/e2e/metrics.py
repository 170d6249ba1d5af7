"""Every metric the benchmark prints: name, unit, direction, bound, source.

``BENCHMARK.json`` repeats the names, units, directions and bounds of this
table (the self-check compares them).  ``bound`` is the relative worsening
of the median that counts as a regression.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only
    source: str = ""  # per-layer only: "M" or "T"


#: What a user of the daemon sees, reported for every workload.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("query_p50_ms", "ms", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("server_rss_mb", "MiB", "lower", 0.10),
)

#: Single layers (layer = module name; README.md says which end-to-end
#: metric each should move).  Source ``M``: ``/metrics``, ``/proc`` and the
#: client's samples over the untraced socket run; ``T``: spans of the traced
#: replay.  0 means "layer not entered on this workload" (no span, no
#: sample), never "not measured".
PER_LAYER = (
    Metric("client.append_p50_ms", "ms", "lower", source="M"),
    Metric("client.query_after_append_p50_ms", "ms", "lower", source="M"),
    Metric("client.fail_share", "ratio", "lower", source="M"),
    Metric("client.samples", "count", "higher", source="M"),
    Metric("client.query_p95_ms", "ms", "lower", source="M"),
    Metric("client.query_p99_ms", "ms", "lower", source="M"),
    Metric("server.cpu_ms_per_op", "ms", "lower", source="M"),
    Metric("server.wire_ms", "ms", "lower", source="M"),
    Metric("server.response_bytes", "bytes", "lower", source="M"),
    Metric("admission.shed_share", "ratio", "lower", source="M"),
    Metric("columnar.builds_per_append", "count", "lower", source="M"),
    Metric("eval.evaluations_per_query", "count", "lower", source="M"),
    Metric("eval.pairs_per_incident", "ratio", "lower", source="M"),
    Metric("cache.result_hit_ratio", "ratio", "higher", source="M"),
    Metric("cache.result_bytes", "bytes", "lower", source="M"),
    Metric("cache.memo_bytes", "bytes", "lower", source="M"),
    Metric("cache.evictions", "count", "lower", source="M"),
    Metric("handlers.dispatch_ms", "ms", "lower", source="T"),
    Metric("handlers.other_ms", "ms", "lower", source="T"),
    Metric("handlers.encode_ms", "ms", "lower", source="T"),
    Metric("schemas.decode_ms", "ms", "lower", source="T"),
    Metric("logstore.snapshot_ms", "ms", "lower", source="T"),
    Metric("logstore.append_ms", "ms", "lower", source="T"),
    Metric("logstore.load_s", "s", "lower", source="T"),
    Metric("columnar.build_ms", "ms", "lower", source="T"),
    Metric("core.parse_ms", "ms", "lower", source="T"),
    Metric("core.plan_ms", "ms", "lower", source="T"),
    Metric("eval.run_ms", "ms", "lower", source="T"),
    Metric("incident.to_rows_ms", "ms", "lower", source="T"),
    Metric("cache.hit_run_ms", "ms", "lower", source="T"),
    Metric("obs.telemetry_ms", "ms", "lower", source="T"),
    Metric("workflow.simulate_s", "s", "lower", source="T"),
    Metric("trace.overhead_ratio", "ratio", "lower", source="T"),
)

BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, linear between order statistics; 0.0 for an
    empty sample, so an absent layer reads 0."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
