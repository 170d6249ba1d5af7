"""Unit tests for the algebra toolkit: chain views, canonicalisation, and
equivalence by canonical form and on random logs."""

import random

from repro.core.algebra import (
    build_left_deep,
    canonicalize,
    flatten_assoc,
    flatten_chain,
    random_logs,
)
from repro.core.incident import reference_incidents
from repro.core.parser import parse
from repro.core.pattern import (
    Choice,
    Consecutive,
    Sequential,
    Atomic,
    random_pattern,
)


def _agree_on_random_logs(p, q):
    """Definition 5 on a battery of random logs over both patterns' names
    plus one fresh name (so negated atoms meet unmentioned activities)."""
    alphabet = sorted(p.activity_names() | q.activity_names()) + ["__fresh__"]
    return all(
        reference_incidents(log, p) == reference_incidents(log, q)
        for log in random_logs(alphabet, seed=0)
    )


class TestFlattenChain:
    def test_pure_sequential_chain(self):
        items, gaps = flatten_chain(parse("A -> B -> C"))
        assert [str(i) for i in items] == ["A", "B", "C"]
        assert all(isinstance(g, Sequential) for g in gaps)

    def test_mixed_chain_keeps_gap_order(self):
        items, gaps = flatten_chain(parse("A ; B -> C ; D"))
        assert [str(i) for i in items] == ["A", "B", "C", "D"]
        assert [type(g) for g in gaps] == [Consecutive, Sequential, Consecutive]

    def test_right_nested_chain_keeps_gap_order(self):
        # regression: gap order must follow the in-order traversal
        items, gaps = flatten_chain(parse("A -> (A -> (C ; !B))"))
        assert [type(g) for g in gaps] == [Sequential, Sequential, Consecutive]

    def test_choice_and_parallel_are_chain_items(self):
        items, gaps = flatten_chain(parse("(A | B) -> (C & D)"))
        assert len(items) == 2
        assert isinstance(items[0], Choice)

    def test_atom_is_a_singleton_chain(self):
        items, gaps = flatten_chain(Atomic("A"))
        assert len(items) == 1 and not gaps


class TestBuildChain:
    def test_all_associations_are_equivalent(self):
        """Theorems 2+4 as an exhaustive check on a 4-item mixed chain."""
        pattern = parse("A ; B -> C ; A")
        log_battery = random_logs("ABC", cases=10, seed=3)
        variants = [
            parse(text)
            for text in ("((A ; B) -> C) ; A",
                         "A ; ((B -> C) ; A)",
                         "(A ; B) -> (C ; A)",
                         "(A ; (B -> C)) ; A")
        ]
        for log in log_battery:
            expected = reference_incidents(log, pattern)
            for variant in variants:
                assert reference_incidents(log, variant) == expected, str(variant)


class TestFlattenAssoc:
    def test_flattens_one_operator_only(self):
        p = parse("A | B | (C | D)")
        assert [str(x) for x in flatten_assoc(p, Choice)] == ["A", "B", "C", "D"]

    def test_other_operators_are_leaves(self):
        p = parse("(A -> B) | C")
        operands = flatten_assoc(p, Choice)
        assert len(operands) == 2

    def test_build_left_deep_inverts(self):
        operands = [Atomic(x) for x in "ABC"]
        assert build_left_deep(Choice, operands) == parse("A | B | C")


class TestCanonicalize:
    def test_idempotent(self, rng):
        for __ in range(30):
            p = random_pattern(rng, "ABC", max_depth=4)
            c = canonicalize(p)
            assert canonicalize(c) == c

    def test_assoc_variants_share_canonical_form(self):
        assert canonicalize(parse("A -> (B -> C)")) == canonicalize(
            parse("(A -> B) -> C")
        )
        assert canonicalize(parse("A ; (B -> C)")) == canonicalize(
            parse("(A ; B) -> C")
        )

    def test_commutative_variants_share_canonical_form(self):
        assert canonicalize(parse("A | B")) == canonicalize(parse("B | A"))
        assert canonicalize(parse("A & B")) == canonicalize(parse("B & A"))

    def test_noncommutative_orders_are_kept_distinct(self):
        assert canonicalize(parse("A -> B")) != canonicalize(parse("B -> A"))

    def test_choice_duplicates_removed(self):
        assert canonicalize(parse("A | A")) == Atomic("A")
        assert canonicalize(parse("(A -> B) | (B -> A) | (A -> B)")) == (
            canonicalize(parse("(A -> B) | (B -> A)"))
        )

    def test_canonicalization_preserves_semantics(self, rng):
        logs = random_logs("ABC", cases=8, seed=5)
        for __ in range(30):
            p = random_pattern(rng, "ABC", max_depth=4)
            c = canonicalize(p)
            for log in logs[:4]:
                assert reference_incidents(log, p) == reference_incidents(log, c)


class TestEquivalenceCheckers:
    def test_provably_equivalent_accepts_rewrites(self):
        assert canonicalize(parse("A | B")) == canonicalize(parse("B | A"))
        assert canonicalize(parse("(A -> B) -> C")) == canonicalize(parse("A -> (B -> C)"))

    def test_provably_equivalent_rejects_different_patterns(self):
        assert canonicalize(parse("A -> B")) != canonicalize(parse("A ; B"))

    def test_randomized_equivalent_confirms_theorem_instances(self):
        assert _agree_on_random_logs(parse("A -> (B | C)"), parse("(A -> B) | (A -> C)"))

    def test_randomized_equivalent_refutes_inequivalence(self):
        assert not _agree_on_random_logs(parse("A -> B"), parse("B -> A"))
        assert not _agree_on_random_logs(parse("A"), parse("!A"))

    def test_random_logs_deterministic(self):
        a = random_logs("AB", cases=5, seed=9)
        b = random_logs("AB", cases=5, seed=9)
        assert a == b


class TestChoiceNormalForm:
    def test_atom_is_its_own_branch(self):
        from repro.core.algebra import choice_normal_form

        assert choice_normal_form(Atomic("A")) == [Atomic("A")]

    def test_distributes_through_operators(self):
        from repro.core.algebra import choice_normal_form

        branches = choice_normal_form(parse("(A | B) ; C"))
        assert {str(b) for b in branches} == {"A ; C", "B ; C"}

    def test_branch_count_is_product_of_widths(self):
        from repro.core.algebra import choice_normal_form

        branches = choice_normal_form(parse("(A | B) -> (C | D | E)"))
        assert len(branches) == 6

    def test_duplicate_branches_removed(self):
        from repro.core.algebra import choice_normal_form

        branches = choice_normal_form(parse("(A | A) -> B"))
        assert len(branches) == 1

    def test_branches_are_choice_free(self):
        from repro.core.algebra import choice_normal_form

        for branch in choice_normal_form(parse("(A | (B & (C | D))) -> E")):
            assert not any(isinstance(n, Choice) for n in branch.walk())

    def test_union_of_branches_equals_original(self, rng):
        from repro.core.algebra import choice_normal_form

        logs = random_logs("ABC", cases=6, seed=77)
        for __ in range(20):
            pattern = random_pattern(rng, "ABC", max_depth=4)
            branches = choice_normal_form(pattern)
            for log in logs[:3]:
                union = set()
                for branch in branches:
                    union |= frozenset(reference_incidents(log, branch))
                assert union == frozenset(reference_incidents(log, pattern)), (
                    str(pattern)
                )
