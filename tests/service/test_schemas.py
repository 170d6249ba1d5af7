"""Wire-schema validators: strict field checking with 400 diagnostics."""

from __future__ import annotations

import pytest

from repro.service.errors import ServiceError
from repro.service.schemas import (
    decode_json_body,
    parse_analyze_request,
    parse_append_request,
    parse_batch_request,
    parse_explain_request,
    parse_lint_request,
    parse_query_request,
)


def _messages(error: ServiceError) -> str:
    assert error.status == 400
    return " | ".join(d["message"] for d in error.details["diagnostics"])


class TestQueryRequest:
    def test_minimal(self):
        request = parse_query_request({"log": "clinic", "pattern": "A -> B"})
        assert request.log == "clinic"
        assert request.pattern == "A -> B"
        assert request.mode == "incidents"
        assert request.limit is None
        assert request.options == {}

    def test_full(self):
        request = parse_query_request(
            {
                "log": "clinic",
                "pattern": "A",
                "mode": "count",
                "limit": 5,
                "options": {"engine": "naive", "max_incidents": 7,
                            "deadline_ms": 10.5, "max_pairs": 100,
                            "optimize": False, "cache": False},
            }
        )
        assert request.mode == "count"
        assert request.options["engine"] == "naive"
        assert request.options["deadline_ms"] == 10.5

    def test_missing_required_fields(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_query_request({})
        messages = _messages(excinfo.value)
        assert "'log'" in messages and "'pattern'" in messages

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_query_request(
                {"log": "l", "pattern": "A", "dedline_ms": 5}
            )
        assert "'dedline_ms': unknown field" in _messages(excinfo.value)

    def test_unknown_option_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_query_request(
                {"log": "l", "pattern": "A", "options": {"max_paris": 1}}
            )
        assert "'options.max_paris': unknown option" in _messages(excinfo.value)

    @pytest.mark.parametrize(
        "removed", [{"jobs": 2}, {"backend": "process"}], ids=["jobs", "backend"]
    )
    def test_removed_parallel_options_are_unknown(self, removed):
        """No alias and no accept-and-ignore: the strict-schema 400 that
        lists what is allowed."""
        with pytest.raises(ServiceError) as excinfo:
            parse_query_request({"log": "l", "pattern": "A", "options": removed})
        (name,) = removed
        assert (
            f"'options.{name}': unknown option (allowed: cache, deadline_ms, "
            "engine, max_incidents, max_pairs, optimize)"
        ) in _messages(excinfo.value)

    def test_bad_option_types(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_query_request(
                {
                    "log": "l",
                    "pattern": "A",
                    "options": {"max_pairs": 0, "deadline_ms": -1, "cache": "yes"},
                }
            )
        messages = _messages(excinfo.value)
        assert "'options.max_pairs'" in messages
        assert "'options.deadline_ms'" in messages
        assert "'options.cache'" in messages

    def test_bad_mode(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_query_request({"log": "l", "pattern": "A", "mode": "explode"})
        assert "'mode': must be one of" in _messages(excinfo.value)

    def test_body_must_be_object(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_query_request([1, 2])
        assert excinfo.value.status == 400

    def test_diagnostics_are_lint_shaped(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_query_request({"log": 3, "pattern": "A"})
        diagnostic = excinfo.value.details["diagnostics"][0]
        assert set(diagnostic) == {"code", "severity", "message", "span", "suggestion"}
        assert diagnostic["code"] == "SVC400"
        assert diagnostic["severity"] == "error"


class TestBatchRequest:
    def test_roundtrip(self):
        request = parse_batch_request(
            {"log": "l", "patterns": ["A", "B -> C"], "analyze": False}
        )
        assert request.patterns == ("A", "B -> C")
        assert request.analyze is False

    def test_empty_patterns_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_batch_request({"log": "l", "patterns": []})
        assert "'patterns': must not be empty" in _messages(excinfo.value)

    def test_non_string_pattern_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_batch_request({"log": "l", "patterns": ["A", 7]})
        assert "'patterns[1]'" in _messages(excinfo.value)


class TestLintAndAnalyze:
    def test_lint(self):
        request = parse_lint_request({"pattern": "A -> B"})
        assert request.log is None

    def test_lint_unknown_field(self):
        with pytest.raises(ServiceError):
            parse_lint_request({"pattern": "A", "mode": "x"})

    def test_analyze(self):
        request = parse_analyze_request({"op": "contains", "p": "A", "q": "B"})
        assert request.op == "contains"
        assert request.max_states is None

    def test_analyze_bad_op(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_analyze_request({"op": "implies", "p": "A", "q": "B"})
        assert "'op': must be one of" in _messages(excinfo.value)


class TestAppendRequest:
    def test_operations(self):
        request = parse_append_request(
            {
                "records": [
                    {"activity": "START"},
                    {"activity": "CheckIn", "wid": 3, "attrs_out": {"x": 1}},
                    {"activity": "END", "wid": 3},
                ]
            }
        )
        assert [r.activity for r in request.records] == ["START", "CheckIn", "END"]
        assert request.records[1].attrs_out == {"x": 1}

    def test_empty_records_rejected(self):
        with pytest.raises(ServiceError):
            parse_append_request({"records": []})

    def test_wid_required_for_non_start(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_append_request({"records": [{"activity": "CheckIn"}]})
        assert "wid is required" in _messages(excinfo.value)

    def test_unknown_record_field(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_append_request(
                {"records": [{"activity": "A", "wid": 1, "lsn": 5}]}
            )
        assert "'records[0].lsn'" in _messages(excinfo.value)


class TestBodyDecoding:
    def test_missing_body(self):
        with pytest.raises(ServiceError) as excinfo:
            decode_json_body(None, what="query")
        assert excinfo.value.status == 400

    def test_invalid_json(self):
        with pytest.raises(ServiceError) as excinfo:
            decode_json_body(b"{nope", what="query")
        assert "not valid JSON" in str(excinfo.value)

    def test_invalid_utf8(self):
        with pytest.raises(ServiceError) as excinfo:
            decode_json_body(b"\xff\xfe{}", what="query")
        assert "not valid UTF-8" in str(excinfo.value)


# ---------------------------------------------------------------------------
# structure-aware request bodies, derived from the request tables
# ---------------------------------------------------------------------------

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.fields import table_of  # noqa: E402
from repro.service.schemas import REQUESTS  # noqa: E402

#: a valid JSON value per type tag the request tables use
_VALID = {
    "str": st.text(min_size=1, max_size=6),
    "bool": st.booleans(),
    "nonneg_int": st.integers(0, 10**6),
    "pos_int": st.integers(1, 10**6),
    "pos_num": st.integers(1, 10**6) | st.floats(1e-3, 1e6),
    "object": st.dictionaries(st.text(max_size=4), st.integers() | st.text(max_size=4), max_size=3),
}

#: the JSON types a tag's values have (a ``bool`` is never an integer)
_JSON_TYPES = {
    "str": (str,),
    "bool": (bool,),
    "nonneg_int": (int,),
    "pos_int": (int,),
    "pos_num": (int, float),
    "object": (dict,),
    "list": (list,),
    "nonempty_list": (list,),
    "options": (dict,),
}

#: candidate wrong values; ``null`` is left out (an optional null is a default)
_POOL = (True, False, 3, 2.5, "x", ["x"], {"a": 1})


def _rows(kind):
    return table_of(kind) if isinstance(kind, type) else kind


def _accepts(kind, doc) -> bool:
    try:
        kind(**doc)
    except ValueError:
        return False
    return True


def valid(kind):
    """Bodies (or field values) ``kind``'s table accepts."""
    if isinstance(kind, str):
        return _VALID[kind]
    if isinstance(kind, tuple):
        form, inner = kind
        if form == "options":
            return st.fixed_dictionaries({}, optional={n: _value(r) for n, r in inner.items()})
        return st.lists(valid(inner), min_size=int(form == "nonempty_list"), max_size=3)
    rows = _rows(kind)
    objects = st.fixed_dictionaries(
        {n: _value(r) for n, r in rows.items() if r.required},
        optional={n: _value(r) for n, r in rows.items() if not r.required},
    )
    # a dataclass may refuse a cross-field combination (only START may omit wid)
    return objects.filter(lambda doc: _accepts(kind, doc)) if isinstance(kind, type) else objects


def _value(row):
    return st.sampled_from(row.choices) if row.choices else valid(row.type)


def wrong(kind):
    """A value of the wrong JSON type for a field of type ``kind``."""
    types = _JSON_TYPES[kind if isinstance(kind, str) else kind[0]]
    return st.sampled_from([v for v in _POOL if type(v) not in types])


def read_back(kind, value):
    """What parsing ``value`` must give: arrays as tuples, options in
    key order, nested objects as their dataclasses."""
    if isinstance(kind, tuple):
        form, inner = kind
        if form == "options":
            return {key: value[key] for key in sorted(value)}
        return tuple(read_back(inner, item) for item in value)
    if isinstance(kind, type):
        rows = table_of(kind)
        return kind(**{n: read_back(rows[n].type, v) for n, v in value.items()})
    return value


_REQUEST = st.sampled_from(sorted(REQUESTS))
_PARSERS = {
    "query": parse_query_request,
    "batch": parse_batch_request,
    "lint": parse_lint_request,
    "explain": parse_explain_request,
    "analyze": parse_analyze_request,
    "append": parse_append_request,
}
_SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


@_SETTINGS
@given(data=st.data(), what=_REQUEST)
def test_every_valid_body_parses_to_its_values(data, what):
    kind = REQUESTS[what]
    body = data.draw(valid(kind))
    assert _PARSERS[what](body) == read_back(kind, body)


def slots(kind, body, prefix=""):
    """``(path, object, row)`` for every field ``body`` may carry, the
    fields of each array item of a nested table included."""
    for row in _rows(kind).values():
        yield f"{prefix}{row.name}", body, row
        inner = row.type[1] if isinstance(row.type, tuple) else None
        if isinstance(inner, type) and row.name in body:
            for index, item in enumerate(body[row.name]):
                yield from slots(inner, item, f"{prefix}{row.name}[{index}].")


@_SETTINGS
@given(data=st.data(), what=_REQUEST)
def test_one_wrong_typed_field_is_one_diagnostic_naming_it(data, what):
    kind = REQUESTS[what]
    body = data.draw(valid(kind))
    path, holder, row = data.draw(st.sampled_from(list(slots(kind, body))))
    holder[row.name] = data.draw(wrong(row.type))
    with pytest.raises(ServiceError) as excinfo:
        _PARSERS[what](body)
    (diagnostic,) = excinfo.value.details["diagnostics"]
    assert diagnostic["message"].startswith(f"{path!r}: must be ")
