"""Server-side configuration: sockets, admission caps, option ceilings.

:class:`ServiceConfig` is the one frozen value that parameterises a
daemon: where it listens, how many queries may run or wait at once, and
the per-request :class:`~repro.core.options.EngineOptions` ceilings that
requests are clamped against.  Clamping — :meth:`ServiceConfig.clamp` —
is the admission-control rule the tentpole hangs on: a client may ask
for *less* than the server allows (a tighter deadline, a smaller pairs
budget) but never more, and a request with no budget at all still runs
under the server ceilings, so one pathological pattern cannot starve
the worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.errors import ReproError
from repro.core.query import ENGINES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.live import SloPolicy

__all__ = ["ServiceConfig", "ClampedOptions"]


@dataclass(frozen=True)
class ClampedOptions:
    """The per-request knobs after server-side clamping.

    ``clamped`` names the request fields that were reduced to a ceiling,
    so responses can report the adjustment (and tests can assert it).
    """

    engine: str | None = None
    optimize: bool = True
    max_incidents: int | None = None
    deadline_ms: float | None = None
    max_pairs: int | None = None
    cache: bool = True
    clamped: tuple[str, ...] = ()


@dataclass(frozen=True)
class ServiceConfig:
    """How one daemon instance behaves.

    Attributes
    ----------
    host / port:
        Listen address; port 0 binds an ephemeral port (the server
        reports the bound address).
    max_concurrency:
        Queries evaluating at once; further admitted requests wait.
    queue_depth:
        Requests allowed to wait for a slot; beyond it the service sheds
        load with 429 + ``Retry-After``.
    queue_timeout_ms:
        Longest a request waits in the queue before it too is shed.
    deadline_ms_ceiling / max_pairs_ceiling / max_incidents_ceiling:
        Per-request governor ceilings.  Requests asking for more are
        clamped down; requests asking for nothing get the ceiling.
    cache_bytes:
        Optional byte budget of the shared query cache.
    max_body_bytes:
        Request bodies above this are refused with 413.
    retry_after_s:
        Hint rendered into ``Retry-After`` on 429/503 responses.
    telemetry:
        Whether the live windowed aggregator and the admin plane record
        anything (default on; the bench overhead gate measures off→on).
    telemetry_bucket_s / telemetry_window_s:
        Width of one aggregation time bucket and the longest trailing
        window the ring can answer (``/v1/admin/stats?window=``).
    telemetry_top_k:
        Per-bucket cap on distinct route/store/pattern attribution keys;
        overflow folds into ``~other``.
    slo_availability_target / slo_latency_target:
        Default SLO objectives: fraction of non-error outcomes, and
        fraction of requests at or under ``slo_latency_threshold_s``.
    slo_fast_window_s / slo_slow_window_s / slo_burn_threshold:
        Multi-window burn-rate alerting parameters (a breach requires
        both windows to burn past the threshold).
    access_log:
        Emit one structured JSON access-log line per request on the
        ``repro.service.access`` logger (the ``--access-log`` CLI flag).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_concurrency: int = 8
    queue_depth: int = 16
    queue_timeout_ms: float = 10_000.0
    deadline_ms_ceiling: float = 30_000.0
    max_pairs_ceiling: int = 50_000_000
    max_incidents_ceiling: int = 1_000_000
    cache_bytes: int | None = None
    max_body_bytes: int = 8 * 1024 * 1024
    retry_after_s: float = 1.0
    telemetry: bool = True
    telemetry_bucket_s: float = 10.0
    telemetry_window_s: float = 3600.0
    telemetry_top_k: int = 32
    slo_availability_target: float = 0.999
    slo_latency_target: float = 0.95
    slo_latency_threshold_s: float = 0.5
    slo_fast_window_s: float = 300.0
    slo_slow_window_s: float = 3600.0
    slo_burn_threshold: float = 1.0
    access_log: bool = False

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ReproError(
                f"max_concurrency must be >= 1, got {self.max_concurrency}"
            )
        if self.queue_depth < 0:
            raise ReproError(f"queue_depth must be >= 0, got {self.queue_depth}")
        if self.deadline_ms_ceiling <= 0:
            raise ReproError(
                f"deadline_ms_ceiling must be > 0, got {self.deadline_ms_ceiling}"
            )
        if self.max_pairs_ceiling < 1:
            raise ReproError(
                f"max_pairs_ceiling must be >= 1, got {self.max_pairs_ceiling}"
            )
        if self.telemetry_bucket_s <= 0:
            raise ReproError(
                f"telemetry_bucket_s must be > 0, got {self.telemetry_bucket_s}"
            )
        if self.telemetry_window_s < self.telemetry_bucket_s:
            raise ReproError(
                f"telemetry_window_s ({self.telemetry_window_s}) must be >= "
                f"telemetry_bucket_s ({self.telemetry_bucket_s})"
            )
        if self.slo_slow_window_s > self.telemetry_window_s:
            raise ReproError(
                f"slo_slow_window_s ({self.slo_slow_window_s}) must fit in "
                f"telemetry_window_s ({self.telemetry_window_s})"
            )
        for name in ("slo_availability_target", "slo_latency_target"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ReproError(f"{name} must be in (0, 1), got {value}")

    def slo_policy(self) -> "SloPolicy":
        """The default SLO policy this configuration describes.

        Two service-wide objectives — availability and a latency
        quantile — over the configured fast/slow burn windows.  Custom
        deployments can build richer per-route/per-store policies with
        :class:`~repro.obs.live.SloObjective` directly.
        """
        from repro.obs.live import SloObjective, SloPolicy

        return SloPolicy(
            objectives=(
                SloObjective(
                    name="availability",
                    kind="availability",
                    target=self.slo_availability_target,
                ),
                SloObjective(
                    name="latency",
                    kind="latency",
                    target=self.slo_latency_target,
                    latency_threshold_s=self.slo_latency_threshold_s,
                ),
            ),
            fast_window_s=self.slo_fast_window_s,
            slow_window_s=self.slo_slow_window_s,
            burn_threshold=self.slo_burn_threshold,
        )

    def clamp(self, requested: dict[str, Any]) -> ClampedOptions:
        """Clamp one request's ``options`` object against the ceilings.

        ``requested`` is the already schema-validated options dict of a
        wire request (see :mod:`repro.service.schemas`).  Budgets are
        ``min(requested, ceiling)`` with the ceiling as the default;
        an unknown engine name raises the wire-level 400.
        """
        from repro.service.errors import bad_request

        clamped: list[str] = []

        engine = requested.get("engine")
        if engine is not None and engine not in ENGINES:
            raise bad_request(
                f"unknown engine {engine!r}",
                details={"available": sorted(ENGINES)},
            )

        deadline_ms = requested.get("deadline_ms")
        if deadline_ms is None or deadline_ms > self.deadline_ms_ceiling:
            if deadline_ms is not None:
                clamped.append("deadline_ms")
            deadline_ms = self.deadline_ms_ceiling

        max_pairs = requested.get("max_pairs")
        if max_pairs is None or max_pairs > self.max_pairs_ceiling:
            if max_pairs is not None:
                clamped.append("max_pairs")
            max_pairs = self.max_pairs_ceiling

        max_incidents = requested.get("max_incidents")
        if max_incidents is None or max_incidents > self.max_incidents_ceiling:
            if max_incidents is not None:
                clamped.append("max_incidents")
            max_incidents = self.max_incidents_ceiling

        return ClampedOptions(
            engine=engine,
            optimize=bool(requested.get("optimize", True)),
            max_incidents=max_incidents,
            deadline_ms=float(deadline_ms),
            max_pairs=int(max_pairs),
            cache=bool(requested.get("cache", True)),
            clamped=tuple(clamped),
        )
