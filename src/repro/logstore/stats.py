"""Descriptive statistics over workflow logs.

Provides the :class:`LogSummary` report the CLI prints, plus the
*directly-follows graph* (the standard process-mining abstraction: an edge
``a → b`` weighted by how often ``b`` immediately follows ``a`` within an
instance), counted per ``(a, b)`` pair as a grouped count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.model import Log

__all__ = ["LogSummary", "summarize", "directly_follows_graph", "variant_counts"]


@dataclass(frozen=True)
class LogSummary:
    """Aggregate statistics of one log."""

    total_records: int
    instance_count: int
    completed_instances: int
    activity_counts: Counter = field(default_factory=Counter)
    length_min: int = 0
    length_median: float = 0.0
    length_p95: float = 0.0
    length_max: int = 0
    attribute_names: frozenset[str] = frozenset()

    def format(self) -> str:
        """Multi-line human-readable report (used by ``repro-logs stats``)."""
        lines = [
            f"records            : {self.total_records}",
            f"instances          : {self.instance_count} "
            f"({self.completed_instances} completed)",
            f"instance length    : min {self.length_min} / median "
            f"{self.length_median:g} / p95 {self.length_p95:g} / max "
            f"{self.length_max}",
            f"distinct activities: {len(self.activity_counts)}",
            f"attributes         : {len(self.attribute_names)}",
            "top activities:",
        ]
        for name, count in self.activity_counts.most_common(10):
            lines.append(f"  {name:<24} {count}")
        return "\n".join(lines)


def summarize(log: Log) -> LogSummary:
    """Collect a :class:`LogSummary` in one pass over ``log``."""
    activity_counts: Counter = Counter()
    attributes: set[str] = set()
    for record in log:
        activity_counts[record.activity] += 1
        attributes.update(record.attrs_in)
        attributes.update(record.attrs_out)
    lengths = sorted(len(log.instance(w)) for w in log.wids)
    completed = sum(1 for w in log.wids if log.is_complete(w))
    return LogSummary(
        total_records=len(log),
        instance_count=len(log.wids),
        completed_instances=completed,
        activity_counts=activity_counts,
        length_min=lengths[0],
        length_median=_percentile(lengths, 50),
        length_p95=_percentile(lengths, 95),
        length_max=lengths[-1],
        attribute_names=frozenset(attributes),
    )


def _percentile(ordered: list[int], q: float) -> float:
    """The ``q``-th percentile of ascending ``ordered`` by linear
    interpolation, rounded as ``numpy.percentile``'s default method
    rounds it (from the nearer end), so the two agree to the last bit."""
    k = (len(ordered) - 1) * (q / 100)
    i = int(k)
    t = k - i
    a, b = ordered[i], ordered[min(i + 1, len(ordered) - 1)]
    return float(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))


def directly_follows_graph(log: Log, *, include_sentinels: bool = False) -> Counter:
    """The directly-follows graph of ``log``.

    Maps each edge ``(a, b)`` of activity names to the number of times
    ``b`` immediately follows ``a`` within an instance; the nodes are the
    names the edges mention.  ``START``/``END`` sentinels are dropped
    unless requested.
    """
    graph: Counter = Counter()
    for wid in log.wids:
        trace = log.instance(wid)
        if not include_sentinels:
            trace = tuple(r for r in trace if not r.is_sentinel)
        graph.update(
            (earlier.activity, later.activity)
            for earlier, later in zip(trace, trace[1:])
        )
    return graph


def variant_counts(log: Log, *, include_sentinels: bool = False) -> Counter:
    """Histogram of trace *variants* (distinct activity sequences).

    Process-mining tools report variants to show behaviour diversity; the
    counter maps each activity-name tuple to its number of instances.
    """
    variants: Counter = Counter()
    for wid in log.wids:
        trace = log.instance(wid)
        if not include_sentinels:
            trace = tuple(r for r in trace if not r.is_sentinel)
        variants[tuple(r.activity for r in trace)] += 1
    return variants
