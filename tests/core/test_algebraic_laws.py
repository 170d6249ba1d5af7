"""Property-based verification of Theorems 2-5 (Section 4).

Each theorem is tested as a hypothesis property: random patterns and
random logs are drawn, both sides of the law are evaluated through the
Definition 4 oracle, and the incident sets must coincide.  Non-laws
(commutativity of ⊙/⊳) are pinned with explicit counterexamples.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.incident import reference_incidents
from repro.core.model import Log
from repro.core.pattern import (
    Atomic,
    Choice,
    Consecutive,
    Parallel,
    Sequential,
)

ALPHABET = ("A", "B", "C")
OPERATORS = (Consecutive, Sequential, Choice, Parallel)


# -- strategies -------------------------------------------------------------

def atoms():
    return st.builds(
        Atomic,
        st.sampled_from(ALPHABET),
        st.booleans(),
    )


def patterns(max_leaves: int = 3):
    return st.recursive(
        atoms(),
        lambda children: st.builds(
            lambda cls, left, right: cls(left, right),
            st.sampled_from(OPERATORS),
            children,
            children,
        ),
        max_leaves=max_leaves,
    )


@st.composite
def logs(draw):
    """Small multi-instance logs over the alphabet (plus a fresh name so
    negated atoms see unmentioned activities)."""
    n_instances = draw(st.integers(min_value=1, max_value=3))
    traces = {}
    for wid in range(1, n_instances + 1):
        length = draw(st.integers(min_value=1, max_value=6))
        traces[wid] = [
            draw(st.sampled_from(ALPHABET + ("Z",))) for __ in range(length)
        ]
    interleave = draw(st.booleans())
    return Log.from_traces(traces, interleave=interleave)


def equivalent_on(log, p1, p2) -> bool:
    return reference_incidents(log, p1) == reference_incidents(log, p2)


# -- Theorem 2: associativity ------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    logs(), st.sampled_from(OPERATORS), patterns(), patterns(), patterns()
)
def test_theorem2_associativity(log, op, p1, p2, p3):
    left = op(op(p1, p2), p3)
    right = op(p1, op(p2, p3))
    assert equivalent_on(log, left, right)


# -- Theorem 3: commutativity of ⊗ and ⊕ -------------------------------------

@settings(max_examples=60, deadline=None)
@given(logs(), st.sampled_from((Choice, Parallel)), patterns(), patterns())
def test_theorem3_commutativity(log, op, p1, p2):
    assert equivalent_on(log, op(p1, p2), op(p2, p1))


def test_consecutive_is_not_commutative():
    log = Log.from_traces([["A", "B"]])
    assert not equivalent_on(log, Atomic("A") * Atomic("B"), Atomic("B") * Atomic("A"))


def test_sequential_is_not_commutative():
    log = Log.from_traces([["A", "B"]])
    assert not equivalent_on(log, Atomic("A") >> Atomic("B"), Atomic("B") >> Atomic("A"))


# -- Theorem 4: mixed ⊙/⊳ chains re-associate per-gap -------------------------

@settings(max_examples=60, deadline=None)
@given(logs(), patterns(), patterns(), patterns())
def test_theorem4_part1(log, p1, p2, p3):
    """p1 ⊙ (p2 ⊳ p3) ≡ (p1 ⊙ p2) ⊳ p3."""
    left = Consecutive(p1, Sequential(p2, p3))
    right = Sequential(Consecutive(p1, p2), p3)
    assert equivalent_on(log, left, right)


@settings(max_examples=60, deadline=None)
@given(logs(), patterns(), patterns(), patterns())
def test_theorem4_part2(log, p1, p2, p3):
    """p1 ⊳ (p2 ⊙ p3) ≡ (p1 ⊳ p2) ⊙ p3."""
    left = Sequential(p1, Consecutive(p2, p3))
    right = Consecutive(Sequential(p1, p2), p3)
    assert equivalent_on(log, left, right)


def test_theorem4_operators_do_not_swap():
    """The *operators* stay attached to their gaps: swapping them is NOT an
    equivalence (this pins down the typo in the paper's proof text)."""
    log = Log.from_traces([["A", "B", "X", "C"]])
    a, b, c = Atomic("A"), Atomic("B"), Atomic("C")
    attached = Consecutive(a, Sequential(b, c))   # A⊙B then gap to C
    swapped = Sequential(a, Consecutive(b, c))    # A gap to B⊙C
    assert not equivalent_on(log, attached, swapped)


# -- Theorem 5: distributivity over choice ------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    logs(), st.sampled_from(OPERATORS), patterns(), patterns(), patterns()
)
def test_theorem5_left_distributive(log, op, p1, p2, p3):
    left = op(p1, Choice(p2, p3))
    right = Choice(op(p1, p2), op(p1, p3))
    assert equivalent_on(log, left, right)


@settings(max_examples=60, deadline=None)
@given(
    logs(), st.sampled_from(OPERATORS), patterns(), patterns(), patterns()
)
def test_theorem5_right_distributive(log, op, p1, p2, p3):
    left = op(Choice(p1, p2), p3)
    right = Choice(op(p1, p3), op(p2, p3))
    assert equivalent_on(log, left, right)


# -- supplementary laws used by the optimizer ---------------------------------

@settings(max_examples=40, deadline=None)
@given(logs(), patterns())
def test_choice_idempotence(log, p):
    assert equivalent_on(log, Choice(p, p), p)


@settings(max_examples=40, deadline=None)
@given(logs(), patterns(), patterns())
def test_choice_absorption_is_false_in_general(log, p1, p2):
    """⊗ is set union, so p1 ⊗ p2 contains incL(p1); sanity-check the
    subset relation the choice semantics promises."""
    union = frozenset(reference_incidents(log, Choice(p1, p2)))
    assert frozenset(reference_incidents(log, p1)) <= union
    assert frozenset(reference_incidents(log, p2)) <= union
