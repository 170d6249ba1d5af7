"""``IncidentSet.rows_json`` is ``json.dumps(to_rows(limit), sort_keys=True)``.

A ``mode: incidents`` reply is written from the spans and the columns
without the rows; byte for byte it must be the text the rows would have
given — for a kernel result, for one carried over an append
(``carried_to``), and for the object-built sets of ``naive`` and
``sqlite`` — whatever the activity names hold.  Names arrive over the
wire (``POST /v1/logs/{name}/records``), so quotes, backslashes, control
characters and code points beyond ASCII and beyond the BMP all reach the
encoder.
"""

from __future__ import annotations

import json

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import EngineOptions, Query
from repro.cache import QueryCache
from repro.core.incident import reference_incidents
from repro.core.pattern import Atomic, Choice, Consecutive, Parallel, Sequential
from repro.logstore import LogStore
from repro.service import QueryService, StoreCatalog

#: a quote, a backslash, control characters, non-ASCII, non-BMP, and two
#: plain names so that joins find something
NAMES = ("A", "B", 'say "hi"', "back\\slash\\", "\x00\x1f\t\n", "é ß 中", "\U0001f9ea")
#: JSON can spell a lone surrogate; SQLite cannot store one, so only the
#: wire test carries it
LONE_SURROGATE = "\ud800"

_ATOMS = st.builds(Atomic, st.sampled_from(NAMES), st.booleans())
PATTERNS = st.recursive(
    _ATOMS,
    lambda inner: st.builds(
        lambda op, left, right: op(left, right),
        st.sampled_from((Sequential, Consecutive, Parallel, Choice)),
        inner,
        inner,
    ),
    max_leaves=3,
)
#: an epoch: (instance draw, activity name) appends
EPOCHS = st.lists(
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from(NAMES)), min_size=1, max_size=10),
    min_size=2,
    max_size=3,
)


def play(store: LogStore, appends) -> None:
    for draw, name in appends:
        wid = draw + 1
        if wid not in store.open_instances:
            wid = store.open_instance()
        store.append(wid, name)


def assert_text_is_the_rows(incidents) -> None:
    n = len(incidents)
    for limit in {None, 0, 1, max(n - 1, 0), n, n + 1}:
        rows = incidents.to_rows(limit)
        assert incidents.rows_json(limit) == (json.dumps(rows, sort_keys=True), len(rows)), limit


@settings(max_examples=200, deadline=None)
@given(EPOCHS, PATTERNS)
def test_the_text_is_the_rows_byte_for_byte(epochs, pattern):
    store = LogStore()
    cache = QueryCache()
    for number, appends in enumerate(epochs):
        play(store, appends)
        snapshot = store.snapshot()
        query = Query(pattern, EngineOptions(cache=cache))
        kernel = query.run(snapshot)
        # every epoch after the first carries the cached result over
        assert query.last_cache_layer == ("delta" if number else None)
        assert kernel.canonical_spans() is not None
        assert_text_is_the_rows(kernel)
    for engine in ("naive", "sqlite"):
        built = Query(pattern, EngineOptions(engine=engine)).run(snapshot)
        assert built.canonical_spans() is None
        assert_text_is_the_rows(built)
        assert built.rows_json() == kernel.rows_json()


def test_names_appended_over_the_wire_reach_the_reply_intact():
    catalog = StoreCatalog()
    catalog.add("wire", LogStore())
    service = QueryService(catalog)
    names = NAMES + (LONE_SURROGATE,)
    records = [{"activity": "START", "wid": 1}] + [{"activity": n, "wid": 1} for n in names]
    response = service.dispatch(
        "POST", "/v1/logs/wire/records", json.dumps({"records": records}).encode()
    )
    assert response.status == 200
    for request in (
        {"log": "wire", "pattern": "!A -> !B"},
        {"log": "wire", "pattern": "!A -> !B", "limit": 5},
        {"log": "wire", "pattern": "!A -> !B", "options": {"engine": "naive"}},
    ):
        response = service.dispatch("POST", "/v1/query", json.dumps(request).encode())
        assert response.status == 200
        reply = json.loads(response.body())
        oracle = reference_incidents(catalog.snapshot("wire"), Query("!A -> !B").pattern)
        rows = oracle.to_rows(request.get("limit"))
        assert reply["incidents"] == json.loads(json.dumps(rows))
        assert reply["count"] == len(oracle) and reply["truncated"] == (len(rows) < len(oracle))
        if not reply["truncated"]:
            seen = {name for row in reply["incidents"] for name in row["activities"]}
            assert seen >= set(names[2:])
