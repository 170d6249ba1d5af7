"""Wire-request schemas and validators for the query service.

Dependency-free structural validation in the style of
:mod:`repro.obs.export`: each ``parse_*_request`` function takes the
decoded JSON body, rejects anything outside the schema with the
service's structured 400 (:func:`repro.service.errors.bad_request`,
carrying lint-style diagnostics), and returns a typed request value.

The validators are strict on purpose: **unknown fields are errors**, not
ignored — a typo like ``"dedline_ms"`` must fail loudly rather than
silently run without a deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

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

#: The per-request engine knobs accepted inside ``options`` and the
#: validator tag of each (see ``_CHECKS``).
OPTION_FIELDS: dict[str, str] = {
    "engine": "str",
    "optimize": "bool",
    "max_incidents": "posint",
    "deadline_ms": "posnum",
    "max_pairs": "posint",
    "cache": "bool",
}


def _is_num(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_CHECKS: dict[str, tuple[Any, str]] = {
    "str": (lambda v: isinstance(v, str) and bool(v), "a non-empty string"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "int": (
        lambda v: isinstance(v, int) and not isinstance(v, bool),
        "an integer",
    ),
    "posint": (
        lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1,
        "a positive integer",
    ),
    "nonnegint": (
        lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
        "a non-negative integer",
    ),
    "posnum": (lambda v: _is_num(v) and v > 0, "a positive number"),
    "object": (lambda v: isinstance(v, Mapping), "an object"),
    "list": (lambda v: isinstance(v, list), "an array"),
}


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


class _Validator:
    """Accumulates findings over one request body, then raises once."""

    def __init__(self, doc: Any, *, what: str) -> None:
        self.what = what
        self.findings: list[dict[str, Any]] = []
        if not isinstance(doc, Mapping):
            raise bad_request(
                f"{what} body must be a JSON object, got "
                f"{type(doc).__name__}",
                details={"diagnostics": [_diagnostic("body must be an object")]},
            )
        self.doc: Mapping[str, Any] = doc

    def reject_unknown(self, allowed: tuple[str, ...]) -> None:
        unknown = sorted(set(self.doc) - set(allowed))
        for name in unknown:
            self.findings.append(
                _diagnostic(
                    f"unknown field (allowed: {', '.join(sorted(allowed))})",
                    field_name=name,
                )
            )

    def require(self, name: str, tag: str) -> Any:
        if name not in self.doc:
            self.findings.append(_diagnostic("required field is missing", field_name=name))
            return None
        return self._checked(name, self.doc[name], tag)

    def optional(self, name: str, tag: str, default: Any = None) -> Any:
        if name not in self.doc or self.doc[name] is None:
            return default
        return self._checked(name, self.doc[name], tag)

    def _checked(self, name: str, value: Any, tag: str) -> Any:
        check, expected = _CHECKS[tag]
        if not check(value):
            self.findings.append(
                _diagnostic(f"must be {expected}", field_name=name)
            )
            return None
        return value

    def choice(self, name: str, choices: tuple[str, ...], default: str) -> str:
        value = self.optional(name, "str", default)
        if value is not None and value not in choices:
            self.findings.append(
                _diagnostic(
                    f"must be one of {', '.join(choices)}", field_name=name
                )
            )
            return default
        return str(value)

    def options(self, name: str = "options") -> dict[str, Any]:
        """The validated ``options`` sub-object (unknown fields rejected)."""
        raw = self.optional(name, "object", {})
        if not raw:
            return {}
        validated: dict[str, Any] = {}
        for key in sorted(raw):
            tag = OPTION_FIELDS.get(key)
            if tag is None:
                self.findings.append(
                    _diagnostic(
                        f"unknown option (allowed: "
                        f"{', '.join(sorted(OPTION_FIELDS))})",
                        field_name=f"{name}.{key}",
                    )
                )
                continue
            value = self._checked(f"{name}.{key}", raw[key], tag)
            if value is not None:
                validated[key] = value
        return validated

    def finish(self) -> None:
        """Raise the accumulated 400, if any finding was recorded."""
        if self.findings:
            raise bad_request(
                f"invalid {self.what} request "
                f"({len(self.findings)} schema violation(s))",
                details={"diagnostics": self.findings},
            )


# ---------------------------------------------------------------------------
# request types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryRequest:
    """Validated body of ``POST /v1/query``."""

    log: str
    pattern: str
    mode: str = "incidents"
    limit: int | None = None
    options: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class BatchRequest:
    """Validated body of ``POST /v1/batch``."""

    log: str
    patterns: tuple[str, ...]
    limit: int | None = None
    analyze: bool = True
    options: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class LintRequest:
    """Validated body of ``POST /v1/lint``."""

    pattern: str
    log: str | None = None


@dataclass(frozen=True)
class ExplainRequest:
    """Validated body of ``POST /v1/explain``."""

    log: str
    pattern: str
    options: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class AnalyzeRequest:
    """Validated body of ``POST /v1/analyze``."""

    op: str
    p: str
    q: str
    max_states: int | None = None


@dataclass(frozen=True)
class AppendRecord:
    """One record operation of an append request.

    ``activity`` ``"START"`` opens an instance (``wid`` optional — omit
    for an auto-assigned id), ``"END"`` closes ``wid``; anything else
    appends the activity to the open instance ``wid``.
    """

    activity: str
    wid: int | None = None
    attrs_in: dict[str, Any] | None = None
    attrs_out: dict[str, Any] | None = None


@dataclass(frozen=True)
class AppendRequest:
    """Validated body of ``POST /v1/logs/{name}/records``."""

    records: tuple[AppendRecord, ...]


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------


def parse_query_request(doc: Any) -> QueryRequest:
    v = _Validator(doc, what="query")
    v.reject_unknown(("log", "pattern", "mode", "limit", "options"))
    log = v.require("log", "str")
    pattern = v.require("pattern", "str")
    mode = v.choice("mode", QUERY_MODES, "incidents")
    limit = v.optional("limit", "nonnegint")
    options = v.options()
    v.finish()
    return QueryRequest(
        log=str(log), pattern=str(pattern), mode=mode, limit=limit, options=options
    )


def parse_batch_request(doc: Any) -> BatchRequest:
    v = _Validator(doc, what="batch")
    v.reject_unknown(("log", "patterns", "limit", "analyze", "options"))
    log = v.require("log", "str")
    patterns = v.require("patterns", "list")
    if patterns is not None:
        if not patterns:
            v.findings.append(
                _diagnostic("must not be empty", field_name="patterns")
            )
        for index, text in enumerate(patterns):
            if not isinstance(text, str) or not text:
                v.findings.append(
                    _diagnostic(
                        "must be a non-empty string",
                        field_name=f"patterns[{index}]",
                    )
                )
    limit = v.optional("limit", "nonnegint")
    analyze = v.optional("analyze", "bool", True)
    options = v.options()
    v.finish()
    return BatchRequest(
        log=str(log),
        patterns=tuple(str(p) for p in (patterns or ())),
        limit=limit,
        analyze=bool(analyze),
        options=options,
    )


def parse_lint_request(doc: Any) -> LintRequest:
    v = _Validator(doc, what="lint")
    v.reject_unknown(("pattern", "log"))
    pattern = v.require("pattern", "str")
    log = v.optional("log", "str")
    v.finish()
    return LintRequest(pattern=str(pattern), log=log)


def parse_explain_request(doc: Any) -> ExplainRequest:
    v = _Validator(doc, what="explain")
    v.reject_unknown(("log", "pattern", "options"))
    log = v.require("log", "str")
    pattern = v.require("pattern", "str")
    options = v.options()
    v.finish()
    return ExplainRequest(log=str(log), pattern=str(pattern), options=options)


def parse_analyze_request(doc: Any) -> AnalyzeRequest:
    v = _Validator(doc, what="analyze")
    v.reject_unknown(("op", "p", "q", "max_states"))
    op = v.choice("op", ANALYZE_OPS, "equivalent")
    p = v.require("p", "str")
    q = v.require("q", "str")
    max_states = v.optional("max_states", "posint")
    v.finish()
    return AnalyzeRequest(op=op, p=str(p), q=str(q), max_states=max_states)


def parse_append_request(doc: Any) -> AppendRequest:
    v = _Validator(doc, what="append")
    v.reject_unknown(("records",))
    raw = v.require("records", "list")
    records: list[AppendRecord] = []
    if raw is not None:
        if not raw:
            v.findings.append(_diagnostic("must not be empty", field_name="records"))
        for index, item in enumerate(raw):
            where = f"records[{index}]"
            if not isinstance(item, Mapping):
                v.findings.append(_diagnostic("must be an object", field_name=where))
                continue
            unknown = sorted(set(item) - {"activity", "wid", "attrs_in", "attrs_out"})
            for name in unknown:
                v.findings.append(
                    _diagnostic("unknown field", field_name=f"{where}.{name}")
                )
            activity = item.get("activity")
            if not isinstance(activity, str) or not activity:
                v.findings.append(
                    _diagnostic(
                        "must be a non-empty string",
                        field_name=f"{where}.activity",
                    )
                )
                continue
            wid = item.get("wid")
            if wid is not None and (
                not isinstance(wid, int) or isinstance(wid, bool) or wid < 1
            ):
                v.findings.append(
                    _diagnostic(
                        "must be a positive integer", field_name=f"{where}.wid"
                    )
                )
                continue
            attrs: dict[str, dict[str, Any] | None] = {}
            ok = True
            for attr_field in ("attrs_in", "attrs_out"):
                value = item.get(attr_field)
                if value is not None and not isinstance(value, Mapping):
                    v.findings.append(
                        _diagnostic(
                            "must be an object", field_name=f"{where}.{attr_field}"
                        )
                    )
                    ok = False
                else:
                    attrs[attr_field] = None if value is None else dict(value)
            if not ok:
                continue
            if activity != "START" and wid is None:
                v.findings.append(
                    _diagnostic(
                        "wid is required (only START may omit it)",
                        field_name=where,
                    )
                )
                continue
            records.append(
                AppendRecord(
                    activity=activity,
                    wid=wid,
                    attrs_in=attrs.get("attrs_in"),
                    attrs_out=attrs.get("attrs_out"),
                )
            )
    v.finish()
    return AppendRequest(records=tuple(records))


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
        raise bad_request(
            "invalid admin query parameters",
            details={
                "diagnostics": [
                    _diagnostic(
                        f"window must be a number of seconds, got {raw!r}",
                        field_name="window",
                    )
                ]
            },
        ) from None
    if not window > 0 or window != window:  # reject 0, negatives, NaN
        raise bad_request(
            "invalid admin query parameters",
            details={
                "diagnostics": [
                    _diagnostic(
                        f"window must be > 0 seconds, got {window!r}",
                        field_name="window",
                    )
                ]
            },
        )
    if window > max_s:
        raise bad_request(
            "invalid admin query parameters",
            details={
                "diagnostics": [
                    _diagnostic(
                        f"window must be <= the telemetry ring span "
                        f"({max_s:g}s), got {window:g}",
                        field_name="window",
                    )
                ]
            },
        )
    return window


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


# re-exported for handlers
_ = ServiceError
