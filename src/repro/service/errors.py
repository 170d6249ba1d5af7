"""The service's wire-level error contract.

Every failure the daemon reports travels as one structured JSON body::

    {"error": {"code": "deadline_exceeded", "status": 408,
               "message": "...", "details": {...},
               "partial_stats": {...}}}

:class:`ServiceError` is the single carrier: handlers raise it (or one
of the convenience constructors below) and the dispatch loop renders it.
Library errors are mapped at one place — :func:`map_exception` — so the
status-code contract stays in sync with the exception hierarchy of
:mod:`repro.core.errors`:

==========================================  ======  =====================
library exception                           status  wire code
==========================================  ======  =====================
``PatternSyntaxError`` / schema violation      400  ``bad_request``
unknown log / route                            404  ``not_found``
wrong HTTP method                              405  ``method_not_allowed``
body over the configured cap                   413  ``payload_too_large``
``QueryTimeout``                               408  ``deadline_exceeded``
``QueryBudgetExceeded``                        422  ``budget_exceeded``
``BudgetExceededError`` (max_incidents)        422  ``incident_budget``
``LogStoreError`` and other ``ReproError``     422  ``unprocessable``
admission saturation                           429  ``saturated``
``QueryCancelled`` / draining shutdown         503  ``unavailable``
==========================================  ======  =====================

Governor kills (408/422/503) carry the partial
:class:`~repro.core.eval.base.EvaluationStats` snapshot the governor
detached at the checkpoint that tripped, serialised by
:func:`stats_to_dict` — the caller learns what the killed query had
already cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.errors import (
    BudgetExceededError,
    PatternSyntaxError,
    QueryBudgetExceeded,
    QueryCancelled,
    QueryGovernorError,
    QueryTimeout,
    ReproError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.eval.base import EvaluationStats

__all__ = [
    "ServiceError",
    "bad_request",
    "not_found",
    "method_not_allowed",
    "payload_too_large",
    "saturated",
    "unavailable",
    "map_exception",
    "stats_to_dict",
]


def stats_to_dict(stats: "EvaluationStats | None") -> dict[str, Any] | None:
    """JSON-friendly rendering of an evaluation-stats snapshot."""
    if stats is None:
        return None
    return {
        "operator_evals": stats.operator_evals,
        "pairs_examined": stats.pairs_examined,
        "incidents_produced": stats.incidents_produced,
        "max_live_incidents": stats.max_live_incidents,
        "per_operator": dict(stats.per_operator),
    }


class ServiceError(Exception):
    """One wire-level failure: HTTP status, stable code, JSON payload.

    Parameters
    ----------
    message:
        Human-readable explanation (the ``message`` field).
    status:
        HTTP status code to respond with.
    code:
        Stable machine-readable identifier (``snake_case``).
    details:
        Optional JSON-serialisable object with error specifics (unknown
        fields, lint-style diagnostics, budget numbers, ...).
    retry_after_s:
        When set, rendered as a ``Retry-After`` response header (429/503).
    partial_stats:
        Optional detached stats snapshot from a governor kill.
    """

    def __init__(
        self,
        message: str,
        *,
        status: int,
        code: str,
        details: Any = None,
        retry_after_s: float | None = None,
        partial_stats: "EvaluationStats | None" = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.details = details
        self.retry_after_s = retry_after_s
        self.partial_stats = partial_stats

    def payload(self) -> dict[str, Any]:
        """The JSON body of the error response."""
        error: dict[str, Any] = {
            "code": self.code,
            "status": self.status,
            "message": str(self),
        }
        if self.details is not None:
            error["details"] = self.details
        if self.partial_stats is not None:
            error["partial_stats"] = stats_to_dict(self.partial_stats)
        return {"error": error}

    def headers(self) -> dict[str, str]:
        """Extra response headers this error contributes."""
        if self.retry_after_s is None:
            return {}
        return {"Retry-After": f"{max(0.0, self.retry_after_s):g}"}


def bad_request(message: str, *, details: Any = None) -> ServiceError:
    return ServiceError(message, status=400, code="bad_request", details=details)


def not_found(message: str, *, details: Any = None) -> ServiceError:
    return ServiceError(message, status=404, code="not_found", details=details)


def method_not_allowed(method: str, path: str, allowed: tuple[str, ...]) -> ServiceError:
    return ServiceError(
        f"{method} is not allowed on {path}",
        status=405,
        code="method_not_allowed",
        details={"allowed": list(allowed)},
    )


def payload_too_large(size: int, limit: int) -> ServiceError:
    return ServiceError(
        f"request body of {size} bytes exceeds the {limit}-byte limit",
        status=413,
        code="payload_too_large",
        details={"size": size, "limit": limit},
    )


def saturated(message: str, *, retry_after_s: float) -> ServiceError:
    return ServiceError(
        message, status=429, code="saturated", retry_after_s=retry_after_s
    )


def unavailable(message: str, *, retry_after_s: float | None = None) -> ServiceError:
    return ServiceError(
        message, status=503, code="unavailable", retry_after_s=retry_after_s
    )


def map_exception(exc: Exception) -> ServiceError:
    """The single exception → wire-error mapping (see module docs).

    A :class:`ServiceError` is returned as it is; anything the table
    does not name becomes an opaque 500 (``internal``), so internal
    details never leak onto the wire.
    """
    if isinstance(exc, ServiceError):
        return exc
    if isinstance(exc, PatternSyntaxError):
        diagnostic = {
            "code": "SVC400",
            "severity": "error",
            "message": str(exc),
            "span": None if exc.position is None else [exc.position, exc.position + 1],
            "suggestion": None,
        }
        return bad_request(
            "pattern does not parse", details={"diagnostics": [diagnostic]}
        )
    if isinstance(exc, QueryTimeout):
        return ServiceError(
            str(exc),
            status=408,
            code="deadline_exceeded",
            details={
                "deadline_ms": exc.deadline_ms,
                "elapsed_ms": exc.elapsed_ms,
            },
            partial_stats=exc.partial_stats,  # type: ignore[arg-type]
        )
    if isinstance(exc, QueryBudgetExceeded):
        return ServiceError(
            str(exc),
            status=422,
            code="budget_exceeded",
            details={"max_pairs": exc.limit, "examined": exc.examined},
            partial_stats=exc.partial_stats,  # type: ignore[arg-type]
        )
    if isinstance(exc, QueryCancelled):
        return ServiceError(
            str(exc),
            status=503,
            code="unavailable",
            partial_stats=exc.partial_stats,  # type: ignore[arg-type]
        )
    if isinstance(exc, QueryGovernorError):  # future governor kinds
        return ServiceError(
            str(exc),
            status=422,
            code="budget_exceeded",
            partial_stats=exc.partial_stats,  # type: ignore[arg-type]
        )
    if isinstance(exc, BudgetExceededError):
        return ServiceError(
            str(exc),
            status=422,
            code="incident_budget",
            details={"max_incidents": exc.limit},
        )
    if isinstance(exc, ReproError):
        return ServiceError(str(exc), status=422, code="unprocessable")
    return ServiceError("internal server error", status=500, code="internal")
