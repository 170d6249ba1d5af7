"""Rolling time-windowed telemetry and SLO accounting.

The journal (:mod:`repro.obs.journal`) answers *what did this query
cost?* and the metrics registry answers *what has the process done since
boot?* — neither answers the operator's question, *is the service
healthy right now?*  This module is that missing layer:

* :class:`WindowedAggregator` — a ring of fixed-width time buckets, each
  holding mergeable fixed-bucket :class:`~repro.obs.metrics.Histogram`
  latency distributions plus request/error/kill counters, attributed
  per route, per store and per pattern *shape* (top-K capped, overflow
  folded into ``~other``).  Memory is O(ring size × K), independent of
  traffic; recording is one lock-protected dict update.  Any trailing
  window up to the ring span can be merged on demand into a
  :class:`WindowSnapshot` — buckets are keyed by their **absolute**
  epoch index, so a stale slot is never double-counted and a quiet
  period never leaves a phantom gap.
* :class:`SloPolicy` / :class:`SloEngine` — availability and
  latency-quantile objectives evaluated over the aggregator with
  multi-window error-budget **burn rates** (the fast window catches a
  live incident, the slow window confirms it is not a blip; a breach
  requires both to burn).

The aggregator has one ingestion method,
:meth:`WindowedAggregator.observe_event`, which reads a terminal
journal event.  The service's dispatch loop feeds it the terminal event
of every request it answers, the same record it journals, and the
``repro-logs slo`` subcommand replays a journal file through it; so a
replay of a service journal reports what the live hub reported for the
requests that journal holds.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Iterable, Mapping

from repro.obs.metrics import DEFAULT_TIME_BUCKETS, Histogram

__all__ = [
    "WindowedAggregator",
    "WindowSnapshot",
    "DimensionSnapshot",
    "SloObjective",
    "SloPolicy",
    "SloEngine",
    "pattern_shape",
    "OTHER_KEY",
]

#: Overflow key for attribution dimensions past the top-K cap.
OTHER_KEY = "~other"

#: Latency-histogram boundaries used by every bucket cell (seconds).
_LATENCY_BUCKETS = DEFAULT_TIME_BUCKETS


@lru_cache(maxsize=1024)
def pattern_shape(text: str) -> str:
    """The canonical *shape* of a pattern text: parse + rule-normalise,
    so label-identical requests group even when spelled differently.

    Unparseable text (lint probes, analyze pairs) falls back to the raw
    string — attribution must never fail a request.  Cached because the
    parse is orders of magnitude more expensive than the dict update it
    feeds.
    """
    try:
        from repro.core.optimizer.rules import normalize
        from repro.core.parser import parse

        return str(normalize(parse(text))[0])
    except Exception:  # noqa: BLE001 - attribution is best-effort
        return text


def _classify_error(status: int, killed: bool) -> bool:
    """Whether one outcome burns error budget.

    Server faults (5xx) and governor kills (408 deadline, cooperative
    503 cancellation) count — the service failed to produce the answer.
    Client faults (4xx) and load shedding (429 carries ``Retry-After``)
    do not.
    """
    return killed or status >= 500 or status == 408


class _Cell:
    """One (bucket, key) accumulation cell: counters + latency histogram."""

    __slots__ = ("count", "errors", "killed", "pairs", "latency")

    def __init__(self) -> None:
        self.count = 0
        self.errors = 0
        self.killed = 0
        self.pairs = 0
        self.latency = Histogram("live.latency", _LATENCY_BUCKETS)

    def add(
        self, duration_s: float, *, error: bool, killed: bool, pairs: int
    ) -> None:
        self.count += 1
        if error:
            self.errors += 1
        if killed:
            self.killed += 1
        self.pairs += pairs
        self.latency.observe(duration_s)


class _Bucket:
    """One ring slot: the totals and per-dimension cells of one epoch."""

    __slots__ = ("epoch", "total", "routes", "stores", "patterns")

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self.total = _Cell()
        self.routes: dict[str, _Cell] = {}
        self.stores: dict[str, _Cell] = {}
        self.patterns: dict[str, _Cell] = {}

    def cell(self, dimension: dict[str, _Cell], key: str, cap: int) -> _Cell:
        found = dimension.get(key)
        if found is None:
            if len(dimension) >= cap and key != OTHER_KEY:
                return self.cell(dimension, OTHER_KEY, cap + 1)
            found = dimension[key] = _Cell()
        return found


@dataclass
class DimensionSnapshot:
    """Merged window view of one attribution key (route/store/pattern)."""

    key: str
    count: int = 0
    errors: int = 0
    killed: int = 0
    pairs: int = 0
    latency: Histogram = field(
        default_factory=lambda: Histogram("live.latency", _LATENCY_BUCKETS)
    )

    def to_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "count": self.count,
            "errors": self.errors,
            "killed": self.killed,
            "pairs": self.pairs,
            "p50_s": self.latency.quantile(0.50),
            "p95_s": self.latency.quantile(0.95),
            "p99_s": self.latency.quantile(0.99),
            "mean_s": self.latency.mean,
        }


@dataclass
class WindowSnapshot:
    """Everything the aggregator knows about one trailing window."""

    window_s: float
    since_unix: float
    until_unix: float
    total: DimensionSnapshot
    routes: dict[str, DimensionSnapshot]
    stores: dict[str, DimensionSnapshot]
    patterns: dict[str, DimensionSnapshot]

    @property
    def error_ratio(self) -> float:
        return self.total.errors / self.total.count if self.total.count else 0.0

    def select(
        self, *, route: str | None = None, store: str | None = None
    ) -> DimensionSnapshot:
        """The cell an SLO objective scopes to (missing keys are empty)."""
        if route is not None:
            return self.routes.get(route, DimensionSnapshot(route))
        if store is not None:
            return self.stores.get(store, DimensionSnapshot(store))
        return self.total

    def report(self, *, top: int = 10) -> dict[str, Any]:
        """The JSON-able windowed report behind ``/v1/admin/stats``."""

        def ranked(cells: dict[str, DimensionSnapshot]) -> list[dict[str, Any]]:
            ordered = sorted(
                cells.values(), key=lambda c: (-c.count, c.key)
            )
            return [cell.to_dict() for cell in ordered[:top]]

        return {
            "window_s": self.window_s,
            "since_unix": self.since_unix,
            "until_unix": self.until_unix,
            "requests": self.total.count,
            "errors": self.total.errors,
            "killed": self.total.killed,
            "error_ratio": self.error_ratio,
            "pairs": self.total.pairs,
            "latency": {
                "p50_s": self.total.latency.quantile(0.50),
                "p95_s": self.total.latency.quantile(0.95),
                "p99_s": self.total.latency.quantile(0.99),
                "mean_s": self.total.latency.mean,
                "count": self.total.latency.count,
            },
            "routes": ranked(self.routes),
            "stores": ranked(self.stores),
            "patterns": ranked(self.patterns),
        }


class WindowedAggregator:
    """Ring-buffered rolling telemetry with O(1) memory.

    Parameters
    ----------
    bucket_s:
        Width of one time bucket; the rotation/merge granularity.
    window_s:
        Longest trailing window the ring can answer (ring length is
        ``ceil(window_s / bucket_s)`` buckets).
    top_k:
        Per-bucket cap on distinct keys per attribution dimension;
        further keys fold into :data:`OTHER_KEY`.
    clock:
        Injectable wall-clock (``time.time`` scale) for rotation tests.
    """

    def __init__(
        self,
        *,
        bucket_s: float = 10.0,
        window_s: float = 3600.0,
        top_k: int = 32,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if bucket_s <= 0:
            raise ValueError(f"bucket_s must be > 0, got {bucket_s}")
        if window_s < bucket_s:
            raise ValueError(
                f"window_s ({window_s}) must be >= bucket_s ({bucket_s})"
            )
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        self.bucket_s = float(bucket_s)
        self.window_s = float(window_s)
        self.top_k = int(top_k)
        self._clock = clock
        self._ring_len = int(-(-window_s // bucket_s))  # ceil division
        self._ring: list[_Bucket | None] = [None] * self._ring_len
        self._lock = threading.Lock()
        self.observed = 0

    # -- ingestion ---------------------------------------------------------

    def observe_event(self, event: Mapping[str, Any]) -> bool:
        """Record one **terminal** event (``finish``/``killed``) into the
        bucket of its ``ts_unix`` (the clock's now when it has none).

        This is the aggregator's one ingestion method: the service feeds
        it the terminal event of every request it answers, and
        ``repro-logs slo`` replays a journal through it.  Non-terminal
        kinds are ignored (returns False), so a whole journal can be
        streamed through unfiltered.  The route is the event's
        ``endpoint`` label, else its ``op`` (library runs, older
        journals); an event without ``http_status`` is a 500 when killed
        and a 200 otherwise.
        """
        kind = event.get("event")
        if kind not in ("finish", "killed"):
            return False
        killed = kind == "killed"
        status = event.get("http_status")
        if not isinstance(status, int):
            status = 500 if killed else 200
        error = _classify_error(status, killed)
        route = str(event.get("endpoint") or event.get("op", "?"))
        store = event.get("store")
        pattern = event.get("pattern")
        shape = pattern_shape(pattern) if isinstance(pattern, str) else None
        wall_ms = event.get("wall_ms")
        duration_s = (
            max(0.0, wall_ms / 1000.0) if isinstance(wall_ms, (int, float)) else 0.0
        )
        pairs = event.get("pairs")
        pairs = pairs if isinstance(pairs, int) else 0
        ts = event.get("ts_unix")
        when = ts if isinstance(ts, (int, float)) else self._clock()
        with self._lock:
            bucket = self._bucket_at(when)
            bucket.total.add(duration_s, error=error, killed=killed, pairs=pairs)
            bucket.cell(bucket.routes, route, self.top_k).add(
                duration_s, error=error, killed=killed, pairs=pairs
            )
            if isinstance(store, str):
                bucket.cell(bucket.stores, store, self.top_k).add(
                    duration_s, error=error, killed=killed, pairs=pairs
                )
            if shape is not None:
                bucket.cell(bucket.patterns, shape, self.top_k).add(
                    duration_s, error=error, killed=killed, pairs=pairs
                )
            self.observed += 1
        return True

    def replay(self, events: Iterable[Mapping[str, Any]]) -> int:
        """Stream a journal through :meth:`observe_event`; returns the
        number of terminal events ingested."""
        return sum(1 for event in events if self.observe_event(event))

    # -- reading -----------------------------------------------------------

    def window(self, seconds: float, *, now: float | None = None) -> WindowSnapshot:
        """Merge the trailing ``seconds`` of buckets into one snapshot.

        ``seconds`` is clamped to the ring span; the current (partial)
        bucket is always included.
        """
        seconds = min(max(float(seconds), self.bucket_s), self.window_s)
        when = self._clock() if now is None else now
        current = int(when // self.bucket_s)
        span = int(-(-seconds // self.bucket_s))
        first = current - span + 1
        total = DimensionSnapshot("total")
        routes: dict[str, DimensionSnapshot] = {}
        stores: dict[str, DimensionSnapshot] = {}
        patterns: dict[str, DimensionSnapshot] = {}
        with self._lock:
            for epoch in range(first, current + 1):
                bucket = self._ring[epoch % self._ring_len]
                if bucket is None or bucket.epoch != epoch:
                    continue  # never written, or stale data from a past lap
                _merge_cell(total, bucket.total)
                for key, cell in bucket.routes.items():
                    _merge_cell(routes.setdefault(key, DimensionSnapshot(key)), cell)
                for key, cell in bucket.stores.items():
                    _merge_cell(stores.setdefault(key, DimensionSnapshot(key)), cell)
                for key, cell in bucket.patterns.items():
                    _merge_cell(
                        patterns.setdefault(key, DimensionSnapshot(key)), cell
                    )
        return WindowSnapshot(
            window_s=seconds,
            since_unix=first * self.bucket_s,
            until_unix=when,
            total=total,
            routes=routes,
            stores=stores,
            patterns=patterns,
        )

    # -- internals ---------------------------------------------------------

    def _bucket_at(self, when: float) -> _Bucket:
        """The live bucket for instant ``when`` (lock held by caller).

        Rotation is lazy: a slot gets a fresh bucket the first time a new
        epoch lands on it, so an idle aggregator costs nothing and a reused
        slot can never leak a previous lap's counts.
        """
        epoch = int(when // self.bucket_s)
        slot = epoch % self._ring_len
        bucket = self._ring[slot]
        if bucket is None or bucket.epoch != epoch:
            bucket = self._ring[slot] = _Bucket(epoch)
        return bucket

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WindowedAggregator(bucket_s={self.bucket_s}, "
            f"window_s={self.window_s}, observed={self.observed})"
        )


def _merge_cell(snapshot: DimensionSnapshot, cell: _Cell) -> None:
    snapshot.count += cell.count
    snapshot.errors += cell.errors
    snapshot.killed += cell.killed
    snapshot.pairs += cell.pairs
    snapshot.latency.merge(cell.latency)


# ---------------------------------------------------------------------------
# SLOs: objectives, policy, burn-rate engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SloObjective:
    """One service-level objective.

    ``kind="availability"`` targets the fraction of non-error outcomes;
    ``kind="latency"`` targets the fraction of requests at or under
    ``latency_threshold_s`` (a request over threshold burns budget
    exactly like an error).  ``route``/``store`` scope the objective to
    one attribution cell; both None means the whole service.
    """

    name: str
    kind: str = "availability"
    target: float = 0.999
    latency_threshold_s: float = 0.5
    route: str | None = None
    store: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("availability", "latency"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")
        if self.latency_threshold_s <= 0:
            raise ValueError(
                f"latency_threshold_s must be > 0, got {self.latency_threshold_s}"
            )
        if self.route is not None and self.store is not None:
            raise ValueError("an objective scopes to a route or a store, not both")

    def bad_ratio(self, cell: DimensionSnapshot) -> float:
        """Fraction of budget-burning outcomes in ``cell``."""
        if cell.count == 0:
            return 0.0
        if self.kind == "availability":
            return cell.errors / cell.count
        return 1.0 - cell.latency.fraction_le(self.latency_threshold_s)


@dataclass(frozen=True)
class SloPolicy:
    """The SLOs one service enforces, plus the burn-alert windows.

    ``burn_threshold`` is in error-budget units: a burn rate of 1.0
    spends exactly the budget over the objective's compliance period;
    the default 1.0 flags any over-budget spend, and operators tune it
    up (Google's 14.4×/6× ladder) for paging-grade alerts.
    """

    objectives: tuple[SloObjective, ...] = ()
    fast_window_s: float = 300.0
    slow_window_s: float = 3600.0
    burn_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.fast_window_s <= 0 or self.slow_window_s <= 0:
            raise ValueError("SLO windows must be > 0")
        if self.fast_window_s > self.slow_window_s:
            raise ValueError(
                f"fast_window_s ({self.fast_window_s}) must be <= "
                f"slow_window_s ({self.slow_window_s})"
            )
        if self.burn_threshold <= 0:
            raise ValueError(
                f"burn_threshold must be > 0, got {self.burn_threshold}"
            )

    @classmethod
    def default(
        cls,
        *,
        availability_target: float,
        latency_target: float,
        latency_threshold_s: float,
        **windows: float,
    ) -> "SloPolicy":
        """The daemon's and ``repro-logs slo``'s policy: two service-wide
        objectives, availability and a latency quantile; ``windows`` are
        the policy's ``fast_window_s``, ``slow_window_s`` and
        ``burn_threshold``."""
        return cls(
            objectives=(
                SloObjective("availability", "availability", availability_target),
                SloObjective("latency", "latency", latency_target, latency_threshold_s),
            ),
            **windows,
        )


class SloEngine:
    """Evaluates a :class:`SloPolicy` against a :class:`WindowedAggregator`.

    Burn rate is the classic definition: observed bad-outcome ratio
    divided by the error budget (``1 - target``).  A burn of 1.0 means
    the budget is being spent exactly at the rate that exhausts it over
    the compliance period; a breach requires **both** the fast and slow
    windows to burn past the policy threshold — the multi-window rule
    that suppresses single-bucket blips without missing sustained
    incidents.
    """

    def __init__(self, policy: SloPolicy, aggregator: WindowedAggregator) -> None:
        self.policy = policy
        self.aggregator = aggregator

    def evaluate(self, *, now: float | None = None) -> list[dict[str, Any]]:
        """One row per objective: budgets, burn rates, breach flag."""
        fast = self.aggregator.window(self.policy.fast_window_s, now=now)
        slow = self.aggregator.window(self.policy.slow_window_s, now=now)
        rows: list[dict[str, Any]] = []
        for objective in self.policy.objectives:
            budget = 1.0 - objective.target
            fast_cell = fast.select(route=objective.route, store=objective.store)
            slow_cell = slow.select(route=objective.route, store=objective.store)
            fast_ratio = objective.bad_ratio(fast_cell)
            slow_ratio = objective.bad_ratio(slow_cell)
            burn_fast = fast_ratio / budget
            burn_slow = slow_ratio / budget
            breach = (
                burn_fast >= self.policy.burn_threshold
                and burn_slow >= self.policy.burn_threshold
            )
            rows.append(
                {
                    "name": objective.name,
                    "kind": objective.kind,
                    "target": objective.target,
                    "route": objective.route,
                    "store": objective.store,
                    "latency_threshold_s": (
                        objective.latency_threshold_s
                        if objective.kind == "latency"
                        else None
                    ),
                    "error_budget": budget,
                    "fast_window_s": self.policy.fast_window_s,
                    "slow_window_s": self.policy.slow_window_s,
                    "fast_requests": fast_cell.count,
                    "slow_requests": slow_cell.count,
                    "fast_bad_ratio": fast_ratio,
                    "slow_bad_ratio": slow_ratio,
                    "burn_fast": burn_fast,
                    "burn_slow": burn_slow,
                    "budget_remaining": max(0.0, 1.0 - slow_ratio / budget),
                    "breach": breach,
                }
            )
        return rows

    def report(self, *, now: float | None = None) -> dict[str, Any]:
        """The JSON-able document behind ``/v1/admin/slo``."""
        rows = self.evaluate(now=now)
        return {
            "burn_threshold": self.policy.burn_threshold,
            "fast_window_s": self.policy.fast_window_s,
            "slow_window_s": self.policy.slow_window_s,
            "breaching": sorted(r["name"] for r in rows if r["breach"]),
            "objectives": rows,
        }
