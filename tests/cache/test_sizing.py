"""A cache entry's charge is summed from container lengths; it must equal,
byte for byte, the walk that asks ``sys.getsizeof`` of every container
the entry keeps."""

from __future__ import annotations

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e.workloads import FAT_POOL, POOL
from repro.cache import QueryCache, incidents_nbytes
from repro.cache.sizing import ENTRY_OVERHEAD_BYTES
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.incident import IncidentSet
from repro.core.model import Log
from repro.core.options import EngineOptions
from repro.core.parser import parse
from repro.core.query import Query
from repro.logstore import LogStore
from tests.support.workloads import clinic_log

PATTERNS = ("A", "!A", "A -> B", "A ; B", "A ->[2] B", "A & B", "A | B", "(A | B) -> C -> A")


def walked(incidents: IncidentSet) -> int:
    """The reference charge of a kernel result: every container of its
    canonical spans, each measured."""
    spans = incidents.canonical_spans()
    total = 2 * ENTRY_OVERHEAD_BYTES + sys.getsizeof(spans)
    for window in spans:
        wid, lo, tuples = window
        total += (
            sys.getsizeof(window)
            + sys.getsizeof(wid)
            + sys.getsizeof(lo)
            + sys.getsizeof(tuples)
            + sum(map(sys.getsizeof, tuples))
        )
    return total


def test_the_charge_of_every_pool_pattern_is_the_walks():
    log = clinic_log(150, seed=11)
    engine = VectorizedEngine()
    for text in dict.fromkeys(POOL + FAT_POOL):
        result = engine.evaluate(log, parse(text))
        assert result and incidents_nbytes(result) == walked(result), text


def test_the_charge_of_a_carried_result_is_the_walks():
    store = LogStore.from_log(clinic_log(60, seed=3))
    query = Query("SeeDoctor -> PayTreatment", EngineOptions(cache=QueryCache()))
    query.run(store.snapshot())
    wid = store.open_instance()
    for activity in ("GetRefer", "SeeDoctor", "PayTreatment"):
        store.append(wid, activity)
    carried = query.run(store.snapshot())
    assert query.last_cache_layer == "delta"
    assert incidents_nbytes(carried) == walked(carried)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from("ABC"), min_size=1, max_size=12), min_size=1, max_size=6),
    st.sampled_from(PATTERNS),
)
def test_the_charge_of_a_random_kernel_result_is_the_walks(traces, text):
    result = VectorizedEngine().evaluate(Log.from_traces(traces), parse(text))
    assert incidents_nbytes(result) == walked(result)
