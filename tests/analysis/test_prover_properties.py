"""Property: the prover agrees with the engines (hypothesis).

The headline property runs ≥200 random pattern pairs: whenever the
prover says ``equivalent(p, q)``, the engine outputs on a random log are
byte-for-byte identical; whenever it refutes, the produced witness trace
— replayed through the naive engine — really does distinguish the two
patterns.  Containment likewise projects to incident-set inclusion on
every sampled log.  The result cache's one key,
``canonicalize(normalize(p))``, is pinned against the prover: every
rewrite the cache and the planner apply is proved equivalent.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis import (
    AnalysisError,
    default_prover,
)
from repro.cache.manager import QueryCache
from repro.core.algebra import canonicalize
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.incident import reference_incidents
from repro.core.model import Log
from repro.core.optimizer.rules import normalize
from repro.core.pattern import (
    Atomic,
    Choice,
    Consecutive,
    Parallel,
    Sequential,
)
from repro.extensions.windows import Within

contains = default_prover().contains
equivalent = default_prover().equivalent

ALPHABET = ("A", "B")


def atoms():
    return st.builds(Atomic, st.sampled_from(ALPHABET), st.booleans())


def patterns(max_leaves=3):
    return st.recursive(
        atoms(),
        lambda children: st.one_of(
            st.builds(
                lambda cls, l, r: cls(l, r),
                st.sampled_from((Consecutive, Sequential, Choice, Parallel)),
                children,
                children,
            ),
            st.builds(
                lambda l, r, bound: Within(l, r, bound=bound),
                children,
                children,
                st.integers(min_value=1, max_value=3),
            ),
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


#: Any log: the pattern component of a result key does not depend on it.
CACHE_LOG = Log.from_traces([["A", "B"]])


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
            frozenset(reference_incidents(log, p))
            <= frozenset(reference_incidents(log, q))
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
@given(patterns())
def test_the_result_cache_key_is_proved_equivalent(p):
    """Theorems 2-5 as executable checks on the rewrites the cache and
    the planner actually apply: ``normalize`` and the AC
    ``canonicalize`` of the one result-cache key."""
    normalized = normalize(p)[0]
    key = canonicalize(normalized)
    _, cached_pattern, _ = QueryCache().result_key(CACHE_LOG, p)
    assert cached_pattern == key
    try:
        assert default_prover().witness(p, normalized) is None
        assert default_prover().witness(p, key) is None
    except AnalysisError:
        pass  # over the state budget: the prover does not decide


@settings(max_examples=100, deadline=None)
@given(patterns(max_leaves=2), patterns(max_leaves=2), patterns(max_leaves=2))
def test_containment_is_a_preorder(p, q, r):
    assert contains(p, p)
    if contains(p, q) and contains(q, r):
        assert contains(p, r)


@settings(max_examples=200, deadline=None)
@given(patterns(), patterns())
def test_equivalence_is_containment_both_ways(p, q):
    # one search of the product for a word either side lacks decides
    # what the two containment searches decide
    assert equivalent(p, q) == (contains(p, q) and contains(q, p))
