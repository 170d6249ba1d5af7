"""Property: the prover agrees with the engines (hypothesis).

The headline property runs ≥200 random pattern pairs: whenever the
prover says ``equivalent(p, q)``, the engine outputs on a random log are
byte-for-byte identical; whenever it refutes, the produced witness trace
— replayed through the naive engine — really does distinguish the two
patterns.  Containment likewise projects to incident-set inclusion on
every sampled log.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis import (
    AnalysisError,
    canonical_key,
    contains,
    default_prover,
    equivalent,
)
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.incident import reference_incidents
from repro.core.model import Log
from repro.core.pattern import (
    Atomic,
    Choice,
    Consecutive,
    Parallel,
    Sequential,
)

ALPHABET = ("A", "B")


def atoms():
    return st.builds(Atomic, st.sampled_from(ALPHABET), st.booleans())


def patterns(max_leaves=3):
    return st.recursive(
        atoms(),
        lambda children: st.builds(
            lambda cls, l, r: cls(l, r),
            st.sampled_from((Consecutive, Sequential, Choice, Parallel)),
            children,
            children,
        ),
        max_leaves=max_leaves,
    )


@st.composite
def logs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    traces = {
        wid: [
            draw(st.sampled_from(ALPHABET + ("Z",)))
            for __ in range(draw(st.integers(min_value=1, max_value=6)))
        ]
        for wid in range(1, n + 1)
    }
    return Log.from_traces(traces, interleave=draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(patterns(), patterns(), logs())
def test_equivalence_agrees_with_engine_output_equality(p, q, log):
    """The ≥200-pair acceptance property.

    equivalent → byte-for-byte equal engine output on any log;
    refuted  → the witness trace distinguishes p from q on replay.
    """
    if equivalent(p, q):
        assert (
            VectorizedEngine().evaluate(log, p).to_rows()
            == VectorizedEngine().evaluate(log, q).to_rows()
        )
        assert (
            NaiveEngine().evaluate(log, p).to_rows()
            == NaiveEngine().evaluate(log, q).to_rows()
        )
    else:
        w = default_prover().witness(p, q)
        assert w is not None
        assert w.replay()
        engine = NaiveEngine()
        in_p = w.incident in engine.evaluate(w.log, p)
        in_q = w.incident in engine.evaluate(w.log, q)
        assert in_p != in_q


@settings(max_examples=100, deadline=None)
@given(patterns(), patterns(), logs())
def test_proved_containment_projects_to_incident_inclusion(p, q, log):
    if contains(p, q):
        assert (
            reference_incidents(log, p).to_set()
            <= reference_incidents(log, q).to_set()
        )


@settings(max_examples=100, deadline=None)
@given(patterns(), patterns(), logs())
def test_refuted_containment_has_a_replayable_witness(p, q, log):
    w = default_prover().containment_witness(p, q)
    if w is None:
        return
    # the witness incident is a p-incident that is not a q-incident
    assert w.in_left and not w.in_right
    assert w.incident in reference_incidents(w.log, p)
    assert w.incident not in reference_incidents(w.log, q)


@settings(max_examples=100, deadline=None)
@given(patterns(), patterns())
def test_canonical_key_equality_matches_equivalence(p, q):
    try:
        same_key = canonical_key(p) == canonical_key(q)
    except AnalysisError:
        return
    if same_key:
        assert equivalent(p, q)
    elif p.activity_names() == q.activity_names():
        # over one shared name set the key is complete, too
        assert not equivalent(p, q)


@settings(max_examples=100, deadline=None)
@given(patterns(max_leaves=2), patterns(max_leaves=2), patterns(max_leaves=2))
def test_containment_is_a_preorder(p, q, r):
    assert contains(p, p)
    if contains(p, q) and contains(q, r):
        assert contains(p, r)
