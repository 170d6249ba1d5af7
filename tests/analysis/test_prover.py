"""Unit fixtures for the containment/equivalence prover.

Known-contained and known-incomparable pairs, witness-trace replay
through the naive engine (the witness must *actually* distinguish the
two patterns, per the ground-truth semantics), unsupported-pattern and
state-budget error paths, canonical keys, and IncidentMatcher agreement
with the Definition 4 oracle.
"""

import pytest

from repro.analysis import (
    AnalysisBudgetError,
    IncidentMatcher,
    PatternProver,
    UnsupportedPatternError,
    canonical_key,
    default_prover,
)
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

    @pytest.mark.parametrize("p, q", EQUIV_PAIRS)
    def test_equivalent_pairs_share_a_canonical_key(self, p, q):
        assert canonical_key(p) == canonical_key(q)


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

    @pytest.mark.parametrize("p, q", INCOMPARABLE)
    def test_keys_differ(self, p, q):
        assert canonical_key(p) != canonical_key(q)


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


class TestCanonicalKey:
    def test_key_is_stable_across_provers(self):
        pattern = Sequential(A, Choice(B, C))
        assert (
            PatternProver().canonical_key(pattern)
            == default_prover().canonical_key(pattern)
        )

    def test_key_embeds_the_mentioned_alphabet(self):
        key = canonical_key(Sequential(A, B))
        assert key.startswith("v1:")
        assert "A" in key and "B" in key

    def test_distinct_name_sets_are_conservatively_distinct(self):
        # A | A ≡ A semantically mentions only A; A | (B ; !B)?  Keep it
        # honest: same language shape over different letters must differ.
        assert canonical_key(A) != canonical_key(B)


class TestIncidentMatcher:
    """matcher.matches must agree with Definition 4 membership."""

    LOG = Log.from_traces(
        {1: ["A", "B", "Z", "A", "B"], 2: ["B", "A", "Z"], 3: ["A"]}
    )

    @pytest.mark.parametrize(
        "pattern",
        [
            A,
            NOT_A,
            Consecutive(A, B),
            Sequential(A, B),
            Within(A, B, bound=2),
            Choice(Consecutive(A, B), Sequential(B, A)),
            Parallel(A, B),
        ],
    )
    def test_accepts_exactly_the_oracle_incidents(self, pattern):
        matcher = IncidentMatcher(pattern)
        oracle = frozenset(reference_incidents(self.LOG, pattern))
        # every oracle incident is accepted ...
        for incident in oracle:
            instance = self.LOG.instance(incident.wid)
            assert matcher.matches(incident, instance)
        # ... and incidents of a *different* pattern are rejected unless
        # they are also incidents of this one (checked via the oracle)
        for other in (A, B, Sequential(B, A), Consecutive(B, A)):
            for incident in reference_incidents(self.LOG, other):
                instance = self.LOG.instance(incident.wid)
                assert matcher.matches(incident, instance) == (
                    incident in oracle
                )

    def test_unmentioned_activities_classify_as_other(self):
        # "Z" never appears in the pattern: the matcher must not crash
        # and must still reject marking it for a positive atom.
        matcher = IncidentMatcher(A)
        zs = [
            incident
            for incident in reference_incidents(self.LOG, Atomic("Z"))
        ]
        assert zs  # the log does contain Z records
        for incident in zs:
            assert not matcher.matches(incident, self.LOG.instance(incident.wid))
