"""Counters, gauges and histograms behind a registry.

The registry is deliberately tiny and dependency-free: metric objects are
plain attribute bags created on first use and looked up by name, so the
hot-path cost of recording is one dict lookup plus an addition.  Fixed
histogram bucket boundaries make snapshots mergeable across processes and
stable for the JSON exporter (:mod:`repro.obs.export`).

>>> registry = MetricsRegistry()
>>> registry.counter("engine.pairs_examined").inc(42)
>>> registry.gauge("engine.max_live_incidents").set_max(7)
>>> registry.histogram("monitor.observe_seconds").observe(0.003)
>>> registry.counter("engine.pairs_examined").value
42
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

#: Exponential boundaries for latency histograms, in seconds (1µs .. 10s).
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

#: Powers-of-ten boundaries for size/cardinality histograms.
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)

_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prometheus_name(name: str, prefix: str) -> str:
    """A legal Prometheus metric name: prefixed, invalid chars to ``_``."""
    sanitized = _PROM_INVALID.sub("_", name)
    if prefix:
        sanitized = f"{prefix}_{sanitized}"
    if not sanitized or sanitized[0].isdigit():
        sanitized = f"_{sanitized}"
    return sanitized


def _prometheus_value(value: float) -> str:
    """Shortest exact rendering: integers bare, floats via ``repr``."""
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


#: Canonical label form: ``((name, value), ...)`` sorted by name.
Labels = tuple[tuple[str, str], ...]


def _normalize_labels(labels: Mapping[str, str] | None) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the 0.0.4 exposition format: backslash,
    double-quote and line-feed become ``\\\\``, ``\\"`` and ``\\n``."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _metric_key(name: str, labels: Labels) -> str:
    """The registry/snapshot key: ``name`` bare, or ``name{k="v",...}``
    with canonically ordered, escaped labels."""
    if not labels:
        return name
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return f"{name}{{{body}}}"


def _prometheus_labels(labels: Labels, extra: str = "") -> str:
    """Rendered ``{...}`` sample suffix (sanitised names, escaped values);
    ``extra`` appends a pre-rendered pair such as ``le="0.1"``."""
    parts = [
        f'{_PROM_INVALID.sub("_", k)}="{_escape_label_value(v)}"' for k, v in labels
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _grouped(metrics: Mapping[str, Any]) -> list[tuple[str, list[Any]]]:
    """Series grouped by base metric name, both levels canonically sorted
    — all label sets of one name must sit under a single ``# TYPE``."""
    groups: dict[str, list[Any]] = {}
    for key in sorted(metrics):
        metric = metrics[key]
        groups.setdefault(metric.name, []).append(metric)
    return sorted(groups.items())


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """Last-written (or peak-tracked) value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        """Keep the peak: write only if ``value`` exceeds the current one."""
        if value > self.value:
            self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Histogram with fixed, ascending bucket boundaries.

    ``counts[i]`` counts observations ``<= buckets[i]`` (and greater than
    the previous boundary); ``counts[-1]`` is the overflow bucket.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        labels: Labels = (),
    ):
        boundaries = tuple(float(b) for b in buckets)
        if not boundaries or list(boundaries) != sorted(set(boundaries)):
            raise ValueError("bucket boundaries must be non-empty, unique and ascending")
        self.name = name
        self.labels = labels
        self.buckets = boundaries
        self.counts = [0] * (len(boundaries) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # boundaries are inclusive upper bounds: bucket i holds values with
        # buckets[i-1] < value <= buckets[i]
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear interpolation within the
        fixed buckets (the ``histogram_quantile`` rule).

        The estimate interpolates between a bucket's lower and upper
        boundary proportionally to the rank inside it; observations in
        the overflow bucket clamp to the highest boundary, so the
        estimate never exceeds ``buckets[-1]``.  An empty histogram
        estimates 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, boundary in enumerate(self.buckets):
            in_bucket = self.counts[index]
            if cumulative + in_bucket >= rank:
                if in_bucket == 0:
                    return boundary
                lower = self.buckets[index - 1] if index else 0.0
                fraction = (rank - cumulative) / in_bucket
                return lower + fraction * (boundary - lower)
            cumulative += in_bucket
        return self.buckets[-1]

    def fraction_le(self, value: float) -> float:
        """Estimated fraction of observations ``<= value`` (interpolated
        within the containing bucket); 1.0 on an empty histogram."""
        if self.count == 0:
            return 1.0
        if value >= self.buckets[-1]:
            return 1.0
        cumulative = 0
        for index, boundary in enumerate(self.buckets):
            if value <= boundary:
                lower = self.buckets[index - 1] if index else 0.0
                width = boundary - lower
                fraction = 1.0 if width <= 0 else max(0.0, value - lower) / width
                return (cumulative + fraction * self.counts[index]) / self.count
            cumulative += self.counts[index]
        return 1.0  # pragma: no cover - value < buckets[-1] always returns above

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with identical boundaries into this one
        (the windowed-aggregation primitive)."""
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histograms with different boundaries: "
                f"{self.buckets} vs {other.buckets}"
            )
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.sum += other.sum
        self.count += other.count

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.6g})"


class MetricsRegistry:
    """Creates and owns metrics; hands out the same object per name.

    A name identifies exactly one metric kind: asking for a counter named
    like an existing gauge (or a histogram with different boundaries)
    raises, which keeps exported snapshots unambiguous.  Metrics may
    carry labels — each distinct ``(name, labels)`` combination is its
    own time series, keyed in snapshots as ``name{k="v",...}`` with
    canonically sorted label names and 0.0.4-escaped values.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- constructors ------------------------------------------------------

    def counter(self, name: str, labels: Mapping[str, str] | None = None) -> Counter:
        key = name if not labels else _metric_key(name, _normalize_labels(labels))
        metric = self._counters.get(key)
        if metric is None:
            self._check_fresh(key, self._gauges, self._histograms)
            metric = self._counters[key] = Counter(name, _normalize_labels(labels))
        return metric

    def gauge(self, name: str, labels: Mapping[str, str] | None = None) -> Gauge:
        key = name if not labels else _metric_key(name, _normalize_labels(labels))
        metric = self._gauges.get(key)
        if metric is None:
            self._check_fresh(key, self._counters, self._histograms)
            metric = self._gauges[key] = Gauge(name, _normalize_labels(labels))
        return metric

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        labels: Mapping[str, str] | None = None,
    ) -> Histogram:
        key = name if not labels else _metric_key(name, _normalize_labels(labels))
        metric = self._histograms.get(key)
        if metric is None:
            self._check_fresh(key, self._counters, self._gauges)
            metric = self._histograms[key] = Histogram(
                name, buckets, _normalize_labels(labels)
            )
        elif metric.buckets != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with boundaries "
                f"{metric.buckets}"
            )
        return metric

    def _check_fresh(self, name: str, *other_kinds: dict[str, Any]) -> None:
        if any(name in kind for kind in other_kinds):
            raise ValueError(f"metric {name!r} already registered with another kind")

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Plain-data view of every metric, names sorted."""
        return {
            "counters": {n: self._counters[n].value for n in sorted(self._counters)},
            "gauges": {n: self._gauges[n].value for n in sorted(self._gauges)},
            "histograms": {
                n: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for n, h in sorted(self._histograms.items())
            },
        }

    def to_prometheus(self, *, prefix: str = "repro") -> str:
        """The registry in Prometheus text exposition format (0.0.4).

        Metric names are sanitised (``.`` and other invalid characters
        become ``_``) and prefixed; each metric *name* is preceded by
        exactly one ``# TYPE`` line, with all of its labelled series
        grouped under it as the spec requires.  Label values are escaped
        per 0.0.4 (``\\`` → ``\\\\``, ``"`` → ``\\"``, line-feed →
        ``\\n``).  Histograms follow the Prometheus convention:
        **cumulative** ``_bucket`` samples with inclusive ``le`` upper
        bounds (closing with ``le="+Inf"``), plus ``_sum`` and
        ``_count`` — the internal per-bucket counts are converted, not
        re-observed.  Output is sorted by metric name within each kind
        (label sets in canonical order within a name), so the exposition
        is deterministic for golden-file tests.
        """
        lines: list[str] = []
        for name, series in _grouped(self._counters):
            prom = _prometheus_name(name, prefix)
            lines.append(f"# TYPE {prom} counter")
            for metric in series:
                lines.append(f"{prom}{_prometheus_labels(metric.labels)} {metric.value}")
        for name, series in _grouped(self._gauges):
            prom = _prometheus_name(name, prefix)
            lines.append(f"# TYPE {prom} gauge")
            for metric in series:
                lines.append(
                    f"{prom}{_prometheus_labels(metric.labels)} "
                    f"{_prometheus_value(metric.value)}"
                )
        for name, series in _grouped(self._histograms):
            prom = _prometheus_name(name, prefix)
            lines.append(f"# TYPE {prom} histogram")
            for histogram in series:
                cumulative = 0
                for boundary, bucket_count in zip(histogram.buckets, histogram.counts):
                    cumulative += bucket_count
                    le = f'le="{_prometheus_value(boundary)}"'
                    lines.append(
                        f"{prom}_bucket{_prometheus_labels(histogram.labels, le)} "
                        f"{cumulative}"
                    )
                suffix = _prometheus_labels(histogram.labels, 'le="+Inf"')
                lines.append(f"{prom}_bucket{suffix} {histogram.count}")
                plain = _prometheus_labels(histogram.labels)
                lines.append(f"{prom}_sum{plain} {_prometheus_value(histogram.sum)}")
                lines.append(f"{prom}_count{plain} {histogram.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms)"
        )
