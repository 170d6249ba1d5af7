"""Unit fixtures for the containment/equivalence prover.

Known-contained and known-incomparable pairs, witness-trace replay
through the naive engine (the witness must *actually* distinguish the
two patterns, per the ground-truth semantics), and the
unsupported-pattern and state-budget error paths.
"""

import pytest

from repro.analysis import (
    AnalysisBudgetError,
    PatternProver,
    UnsupportedPatternError,
    default_prover,
)
from repro.core.eval.naive import NaiveEngine
from repro.core.pattern import (
    Atomic,
    Choice,
    Consecutive,
    Parallel,
    Sequential,
)
from repro.extensions.conditions import Guarded
from repro.extensions.windows import Within

contains = default_prover().contains
equivalent = default_prover().equivalent
witness = default_prover().witness

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")
NOT_A = Atomic("A", negated=True)


class TestKnownContained:
    """p ⊑ q pairs that must be proved, with the converse refuted."""

    STRICT_PAIRS = [
        (Consecutive(A, B), Sequential(A, B)),      # ⊙ strengthens ⊳
        (A, Choice(A, B)),                          # operand ⊑ choice
        (Within(A, B, bound=2), Sequential(A, B)),  # windowed ⊑ unbounded
        (Within(A, B, bound=2), Within(A, B, bound=3)),
        (Consecutive(A, B), Parallel(A, B)),  # one interleaving of &
        (B, NOT_A),                           # any B record is a non-A record
        (Parallel(A, B), Choice(Sequential(A, B), Sequential(B, A))),
    ]

    @pytest.mark.parametrize(
        "p, q", STRICT_PAIRS, ids=lambda pattern: repr(pattern)
    )
    def test_containment_holds(self, p, q):
        assert contains(p, q)

    @pytest.mark.parametrize("p, q", STRICT_PAIRS[:-1])
    def test_strict_pairs_refute_the_converse(self, p, q):
        assert not contains(q, p)

    def test_containment_is_reflexive_and_transitive_on_fixtures(self):
        chain = [Consecutive(A, B), Within(A, B, bound=3), Sequential(A, B)]
        for pattern in chain:
            assert contains(pattern, pattern)
        assert contains(chain[0], chain[1])
        assert contains(chain[1], chain[2])
        assert contains(chain[0], chain[2])


class TestKnownEquivalent:
    EQUIV_PAIRS = [
        # ⊳ with window 1 admits no gap: exactly ⊙
        (Within(A, B, bound=1), Consecutive(A, B)),
        # Theorem: & is the union of the two orderings
        (Parallel(A, B), Choice(Sequential(A, B), Sequential(B, A))),
        # AC laws of ⊗
        (Choice(A, B), Choice(B, A)),
        (Choice(Choice(A, B), C), Choice(A, Choice(B, C))),
        (Choice(A, A), A),
        # Theorem 5 factoring
        (
            Choice(Sequential(A, B), Sequential(A, C)),
            Sequential(A, Choice(B, C)),
        ),
    ]

    @pytest.mark.parametrize("p, q", EQUIV_PAIRS)
    def test_equivalent(self, p, q):
        assert equivalent(p, q)
        assert witness(p, q) is None


class TestKnownIncomparable:
    INCOMPARABLE = [
        (Sequential(A, B), Sequential(B, A)),
        (Consecutive(A, B), Consecutive(B, A)),
        (A, B),
        (NOT_A, A),                       # disjoint single-record languages
        (Choice(A, B), Consecutive(A, B)),  # one marked record vs two
    ]

    @pytest.mark.parametrize("p, q", INCOMPARABLE)
    def test_neither_direction_holds(self, p, q):
        assert not contains(p, q)
        assert not contains(q, p)
        assert not equivalent(p, q)


class TestWitnessReplay:
    """A refutation witness must be a *real* counterexample: replayed
    through the naive engine, the marked incident belongs to exactly the
    side the prover claims."""

    REFUTED = [
        (Sequential(A, B), Consecutive(A, B)),
        (Sequential(A, B), Sequential(B, A)),
        (Choice(A, B), A),
        (Sequential(A, B), Within(A, B, bound=2)),
        (NOT_A, B),
        (Parallel(A, B), Consecutive(A, B)),
    ]

    @pytest.mark.parametrize("p, q", REFUTED)
    def test_witness_distinguishes_via_the_naive_engine(self, p, q):
        w = witness(p, q)
        assert w is not None
        assert w.in_left != w.in_right
        engine = NaiveEngine()
        in_p = w.incident in engine.evaluate(w.log, p)
        in_q = w.incident in engine.evaluate(w.log, q)
        assert in_p == w.in_left
        assert in_q == w.in_right
        assert in_p != in_q  # the trace actually distinguishes p from q

    @pytest.mark.parametrize("p, q", REFUTED)
    def test_replay_agrees_with_the_oracle(self, p, q):
        w = witness(p, q)
        assert w is not None and w.replay()

    def test_witness_log_is_single_instance_and_valid(self):
        w = witness(Sequential(A, B), Consecutive(A, B))
        assert w is not None
        assert list(w.log.wids) == [1]
        w.log.validate()
        assert w.incident.lsns <= {record.lsn for record in w.log}

    def test_witness_format_brackets_the_incident(self):
        w = witness(Sequential(A, B), Consecutive(A, B))
        assert w is not None
        text = w.format()
        assert "[A]" in text and "[B]" in text
        assert "not of" in text


class TestErrorPaths:
    def test_guarded_pattern_is_unsupported(self):
        with pytest.raises(UnsupportedPatternError):
            contains(Guarded("A"), A)

    def test_guarded_inside_a_composite_is_unsupported(self):
        with pytest.raises(UnsupportedPatternError):
            equivalent(Sequential(Guarded("A"), B), Sequential(A, B))

    def test_state_budget_is_enforced(self):
        tiny = PatternProver(max_states=4)
        big = Sequential(Sequential(A, B), Sequential(C, Choice(A, B)))
        with pytest.raises(AnalysisBudgetError) as excinfo:
            tiny.contains(big, big)
        assert excinfo.value.limit == 4

    def test_analysis_errors_are_repro_errors(self):
        from repro.core.errors import ReproError

        with pytest.raises(ReproError):
            contains(Guarded("A"), A)

