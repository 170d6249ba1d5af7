"""Wire-request schemas for the query service.

Each request dataclass's fields are its wire table
(:func:`repro.fields.wire`): name, type tag, default, choices and a doc
line, declared once.  Every ``parse_*_request`` function is one strict
:func:`repro.fields.walk` of the decoded JSON body against that table,
which builds the typed request or yields findings; the parse turns all
of them into the service's structured 400
(:func:`repro.service.errors.bad_request`, carrying lint-style
diagnostics).

The walk is strict on purpose: **unknown fields are errors**, not
ignored — a typo like ``"dedline_ms"`` must fail loudly rather than
silently run without a deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.fields import Field, table, walk, wire
from repro.service.errors import ServiceError, bad_request

__all__ = [
    "QueryRequest",
    "BatchRequest",
    "LintRequest",
    "ExplainRequest",
    "AnalyzeRequest",
    "AppendRequest",
    "AppendRecord",
    "QUERY_MODES",
    "ANALYZE_OPS",
    "parse_query_request",
    "parse_batch_request",
    "parse_lint_request",
    "parse_explain_request",
    "parse_analyze_request",
    "parse_append_request",
    "parse_window_param",
]

#: What ``POST /v1/query`` may compute.
QUERY_MODES: tuple[str, ...] = ("incidents", "count", "exists", "instances")

#: Decision procedures exposed by ``POST /v1/analyze``.
ANALYZE_OPS: tuple[str, ...] = ("equivalent", "contains")

#: The per-request engine knobs accepted inside ``options``.
OPTION_FIELDS: dict[str, Field] = table(
    Field("engine", "str", False, doc="evaluation engine: vectorized or naive"),
    Field("optimize", "bool", False, doc="rewrite the pattern before evaluating it"),
    Field("max_incidents", "pos_int", False, doc="cap on the incidents held at once"),
    Field("deadline_ms", "pos_num", False, doc="wall-clock budget in milliseconds"),
    Field("max_pairs", "pos_int", False, doc="cap on incident pairs examined"),
    Field("cache", "bool", False, doc="read and fill the shared result cache"),
)

_OPTIONS = ("options", OPTION_FIELDS)


def _diagnostic(message: str, *, field_name: str | None = None) -> dict[str, Any]:
    """One lint-style finding for a 400 body (mirrors
    :meth:`repro.core.lint.Diagnostic.to_dict`)."""
    return {
        "code": "SVC400",
        "severity": "error",
        "message": message if field_name is None else f"{field_name!r}: {message}",
        "span": None,
        "suggestion": None,
    }


def _invalid(message: str, found: list[tuple[str, str]]) -> ServiceError:
    return bad_request(
        message,
        details={"diagnostics": [_diagnostic(m, field_name=p) for p, m in found]},
    )


# ---------------------------------------------------------------------------
# request types: each dataclass's fields are its wire table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryRequest:
    """Validated body of ``POST /v1/query``."""

    log: str = wire("str", "name of the store to query")
    pattern: str = wire("str", "incident pattern text")
    mode: str = wire("str", "what to compute", default="incidents", choices=QUERY_MODES)
    limit: int | None = wire("nonneg_int", "cap on the incidents or rows returned", default=None)
    options: dict[str, Any] = wire(_OPTIONS, "engine knobs (see Request options)", default={})


@dataclass(frozen=True)
class BatchRequest:
    """Validated body of ``POST /v1/batch``."""

    log: str = wire("str", "name of the store to query")
    patterns: tuple[str, ...] = wire(("nonempty_list", "str"), "incident pattern texts")
    limit: int | None = wire("nonneg_int", "cap on the incidents returned per pattern", default=None)
    analyze: bool = wire("bool", "accepted and type-checked; has no effect", default=True)
    options: dict[str, Any] = wire(_OPTIONS, "engine knobs (see Request options)", default={})


@dataclass(frozen=True)
class LintRequest:
    """Validated body of ``POST /v1/lint``."""

    pattern: str = wire("str", "incident pattern text")
    log: str | None = wire("str", "store whose activities the lint checks against", default=None)


@dataclass(frozen=True)
class ExplainRequest:
    """Validated body of ``POST /v1/explain``."""

    log: str = wire("str", "name of the store to plan against")
    pattern: str = wire("str", "incident pattern text")
    options: dict[str, Any] = wire(_OPTIONS, "engine knobs (see Request options)", default={})


@dataclass(frozen=True, kw_only=True)
class AnalyzeRequest:
    """Validated body of ``POST /v1/analyze``."""

    op: str = wire("str", "decision procedure", default="equivalent", choices=ANALYZE_OPS)
    p: str = wire("str", "left pattern text")
    q: str = wire("str", "right pattern text")
    max_states: int | None = wire("pos_int", "automaton state budget", default=None)


@dataclass(frozen=True)
class AppendRecord:
    """One record operation of an append request.

    ``activity`` ``"START"`` opens an instance (``wid`` optional — omit
    for an auto-assigned id), ``"END"`` closes ``wid``; anything else
    appends the activity to the open instance ``wid``.
    """

    activity: str = wire("str", "activity name, or START / END")
    wid: int | None = wire("pos_int", "instance id", default=None)
    attrs_in: dict[str, Any] | None = wire("object", "input attributes", default=None)
    attrs_out: dict[str, Any] | None = wire("object", "output attributes", default=None)

    def __post_init__(self) -> None:
        if self.wid is None and self.activity != "START":
            raise ValueError("wid is required (only START may omit it)")


@dataclass(frozen=True)
class AppendRequest:
    """Validated body of ``POST /v1/logs/{name}/records``."""

    records: tuple[AppendRecord, ...] = wire(
        ("nonempty_list", AppendRecord), "record operations, applied whole or not at all"
    )


#: Every request type, by the endpoint label its diagnostics use.
REQUESTS: dict[str, type] = {
    "query": QueryRequest,
    "batch": BatchRequest,
    "lint": LintRequest,
    "explain": ExplainRequest,
    "analyze": AnalyzeRequest,
    "append": AppendRequest,
}


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------


def _parse(what: str, doc: Any) -> Any:
    """Walk ``doc`` strictly against the ``what`` request's table and
    return the request, or raise the 400 carrying every finding."""
    if not isinstance(doc, Mapping):
        raise bad_request(
            f"{what} body must be a JSON object, got {type(doc).__name__}",
            details={"diagnostics": [_diagnostic("body must be an object")]},
        )
    request, found = walk(REQUESTS[what], doc, strict=True)
    if found:
        raise _invalid(f"invalid {what} request ({len(found)} schema violation(s))", found)
    return request


def parse_query_request(doc: Any) -> QueryRequest:
    return _parse("query", doc)


def parse_batch_request(doc: Any) -> BatchRequest:
    return _parse("batch", doc)


def parse_lint_request(doc: Any) -> LintRequest:
    return _parse("lint", doc)


def parse_explain_request(doc: Any) -> ExplainRequest:
    return _parse("explain", doc)


def parse_analyze_request(doc: Any) -> AnalyzeRequest:
    return _parse("analyze", doc)


def parse_append_request(doc: Any) -> AppendRequest:
    return _parse("append", doc)


def parse_window_param(
    params: Mapping[str, Any] | None,
    *,
    default_s: float,
    max_s: float,
) -> float:
    """Validate the admin plane's ``?window=<seconds>`` query parameter.

    Accepts a positive number of seconds no larger than the telemetry
    ring span; anything else gets the structured 400 with a diagnostic,
    same contract as the body validators.
    """
    raw = None if params is None else params.get("window")
    if raw is None:
        return float(default_s)
    if isinstance(raw, (list, tuple)):  # urllib parse_qs shape
        raw = raw[-1] if raw else None
    try:
        window = float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        problem = f"window must be a number of seconds, got {raw!r}"
    else:
        if not window > 0 or window != window:  # reject 0, negatives, NaN
            problem = f"window must be > 0 seconds, got {window!r}"
        elif window > max_s:
            problem = (
                f"window must be <= the telemetry ring span ({max_s:g}s), "
                f"got {window:g}"
            )
        else:
            return window
    raise _invalid("invalid admin query parameters", [("window", problem)])


def decode_json_body(body: bytes | None, *, what: str) -> Any:
    """Decode a request body as JSON, mapping failures to the 400 contract."""
    import json

    if body is None or not body.strip():
        raise bad_request(f"{what} request requires a JSON body")
    try:
        return json.loads(body.decode("utf-8"))
    except UnicodeDecodeError:
        raise bad_request(f"{what} body is not valid UTF-8") from None
    except json.JSONDecodeError as exc:
        raise bad_request(
            f"{what} body is not valid JSON: {exc.msg} at offset {exc.pos}"
        ) from None

