"""Random histories of one append-only store, for the epoch-extension
properties: what a snapshot, its columns and a cached result carry from
one epoch to the next (``tests/logstore/test_snapshot_extension.py``,
``tests/columnar/test_columnar_extension.py``,
``tests/cache/test_delta_evaluation.py``).

A history is a list of epochs, each a list of operations on a
:class:`~repro.logstore.LogStore`; :func:`play` applies one epoch's
operations.  Operations name instances by a draw that :func:`play` maps
onto what is open at that moment, so every generated history is valid:
appends land on middle instances as often as on the newest, explicit wids
open instances below the highest, and now and then an activity name the
store has not seen comes along.
"""

from __future__ import annotations

import hypothesis.strategies as st

from repro.core.errors import LogStoreError
from repro.logstore import LogStore

ALPHABET = ("A", "B", "C")

_OPERATIONS = st.one_of(
    st.tuples(st.just("open"), st.none() | st.integers(min_value=1, max_value=12)),
    st.tuples(
        st.just("append"),
        st.integers(min_value=0, max_value=50),
        st.sampled_from(ALPHABET + ("A", "B", "Z", "New")),
        st.none() | st.fixed_dictionaries({"amount": st.integers(0, 3)}),
    ),
    st.tuples(st.just("close"), st.integers(min_value=0, max_value=50)),
)


def histories(*, min_epochs: int = 2, max_epochs: int = 5):
    """Lists of epochs; each epoch a nonempty list of operations."""
    return st.lists(
        st.lists(_OPERATIONS, min_size=1, max_size=6),
        min_size=min_epochs,
        max_size=max_epochs,
    )


def play(store: LogStore, operations) -> set[int]:
    """Apply one epoch's operations; the wids that got a record.  Starts
    an instance first when the store is still empty, so the epoch can be
    snapshotted."""
    touched: set[int] = set()
    if not len(store):
        touched.add(store.open_instance())
    for operation in operations:
        kind, pick = operation[:2]
        open_now = store.open_instances
        if kind == "open":
            try:
                touched.add(store.open_instance(pick))
            except LogStoreError:  # that wid exists already
                pass
        elif open_now:
            wid = open_now[pick % len(open_now)]
            if kind == "close":
                store.close_instance(wid)
            else:
                store.append(wid, operation[2], attrs_out=operation[3])
            touched.add(wid)
    return touched
