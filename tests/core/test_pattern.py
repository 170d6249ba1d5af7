"""Unit tests for the pattern algebra AST and DSL (Definition 3)."""

import random

import pytest

from repro.core.model import LogRecord
from repro.core.pattern import (
    Atomic,
    BinaryPattern,
    Choice,
    Consecutive,
    Parallel,
    Sequential,
    enumerate_patterns,
    parallel,
    precedence,
    random_pattern,
    to_text,
)


class TestAtomic:
    def test_positive_and_negative_atoms(self):
        assert Atomic("A") == Atomic("A", negated=False)
        assert ~Atomic("A") == Atomic("A", negated=True)
        assert Atomic("A") != ~Atomic("A")

    def test_invert_flips_polarity(self):
        assert (~Atomic("A")).negated
        assert ~~Atomic("A") == Atomic("A")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Atomic("")

    def test_matches_by_activity_name(self):
        record = LogRecord(lsn=1, wid=1, is_lsn=1, activity="START")
        assert Atomic("START").matches(record)
        assert not Atomic("A").matches(record)
        assert (~Atomic("A")).matches(record)  # negation matches sentinels too
        assert not (~Atomic("START")).matches(record)

    def test_atoms_are_hashable(self):
        assert len({Atomic("A"), Atomic("A"), ~Atomic("A")}) == 2


class TestDSL:
    def test_operator_overloads_build_correct_nodes(self):
        a, b = Atomic("A"), Atomic("B")
        assert isinstance(a * b, Consecutive)
        assert isinstance(a >> b, Sequential)
        assert isinstance(a | b, Choice)
        assert isinstance(a & b, Parallel)

    def test_strings_coerce_to_atoms(self):
        p = Atomic("A") >> "B"
        assert p.right == Atomic("B")

    def test_invalid_operand_type_raises(self):
        with pytest.raises(TypeError):
            Atomic("A") >> 42  # type: ignore[operator]

    def test_variadic_constructors_left_fold(self):
        assert parallel("A", "B", "C") == (Atomic("A") & Atomic("B")) & Atomic("C")
        assert parallel("A") == Atomic("A")

    def test_variadic_constructors_require_an_operand(self):
        with pytest.raises(ValueError):
            parallel()

    def test_with_children_preserves_operator(self):
        node = Atomic("A") >> Atomic("B")
        rebuilt = node.with_children(Atomic("X"), Atomic("Y"))
        assert isinstance(rebuilt, Sequential)
        assert rebuilt == Atomic("X") >> Atomic("Y")


class TestIntrospection:
    def test_size_counts_leaves(self):
        p = (Atomic("A") >> Atomic("B")) & (Atomic("A") | Atomic("C"))
        assert p.size == 4

    def test_atoms_yielded_left_to_right(self):
        p = (Atomic("A") >> Atomic("B")) | Atomic("C")
        assert [a.name for a in p.atoms()] == ["A", "B", "C"]

    def test_walk_visits_every_node(self):
        p = (Atomic("A") >> Atomic("B")) | Atomic("C")
        kinds = [type(node).__name__ for node in p.walk()]
        assert kinds.count("Atomic") == 3
        assert "Choice" in kinds and "Sequential" in kinds

    def test_activity_names_ignores_negation(self):
        p = ~Atomic("A") >> Atomic("B")
        assert p.activity_names() == {"A", "B"}


class TestTextRendering:
    @pytest.mark.parametrize("text", [
        "A",
        "!A",
        "A -> B",
        "A ; B",
        "A | B",
        "A & B",
        "A -> B -> C",
        "A -> (B -> C)",
        "(A | B) & C",
        "A | (B & C)",
        "(A ; B) -> (C | D)",
        "!A -> (B | !C)",
    ])
    def test_roundtrip_through_parser(self, text):
        from repro.core.parser import parse

        pattern = parse(text)
        assert parse(to_text(pattern)) == pattern

    def test_quoted_names_rendered_with_quotes(self):
        assert to_text(Atomic("Check In")) == '"Check In"'

    def test_str_uses_to_text(self):
        assert str(Atomic("A") >> Atomic("B")) == "A -> B"

    def test_precedence_values(self):
        assert precedence(Atomic("A")) == 4
        assert precedence(Atomic("A") * Atomic("B")) == 3
        assert precedence(Atomic("A") >> Atomic("B")) == 3
        assert precedence(Atomic("A") & Atomic("B")) == 2
        assert precedence(Atomic("A") | Atomic("B")) == 1


class TestGenerators:
    def test_random_pattern_is_deterministic_per_seed(self):
        a = random_pattern(random.Random(5), "ABC", max_depth=4)
        b = random_pattern(random.Random(5), "ABC", max_depth=4)
        assert a == b

    def test_random_pattern_respects_alphabet(self):
        p = random_pattern(random.Random(0), ["X", "Y"], max_depth=5)
        assert p.activity_names() <= {"X", "Y"}

    def test_random_pattern_can_disable_negation(self):
        for seed in range(30):
            p = random_pattern(random.Random(seed), "AB", allow_negation=False)
            assert not any(a.negated for a in p.atoms())

    def test_enumerate_patterns_counts(self):
        # 0 operators: |alphabet| atoms; 1 operator: 4 * a^2 combinations
        patterns = list(enumerate_patterns("AB", max_operators=1))
        atoms = [p for p in patterns if isinstance(p, Atomic)]
        composites = [p for p in patterns if isinstance(p, BinaryPattern)]
        assert len(atoms) == 2
        assert len(composites) == 4 * 2 * 2

    def test_enumerate_patterns_unique(self):
        patterns = list(enumerate_patterns("AB", max_operators=1))
        assert len(patterns) == len(set(patterns))
