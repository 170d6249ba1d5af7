"""Unit tests for the query-text parser (shunting-yard, Algorithm 3)."""

import pytest

from repro.core.errors import PatternSyntaxError
from repro.core.parser import parse, tokenize
from repro.core.pattern import (
    Atomic,
    Choice,
    Consecutive,
    Parallel,
    Sequential,
)


class TestTokenizer:
    def test_simple_tokens(self):
        kinds = [(t.kind, t.value) for t in tokenize("A -> (B | !C)")]
        assert kinds == [
            ("atom", "A"), ("op", "->"), ("lparen", "("),
            ("atom", "B"), ("op", "|"), ("atom", "C"), ("rparen", ")"),
        ]

    def test_negation_flag(self):
        tokens = list(tokenize("!A"))
        assert tokens[0].negated is True
        tokens = list(tokenize("¬A"))
        assert tokens[0].negated is True

    def test_quoted_names(self):
        token = next(iter(tokenize('"See Doctor"')))
        assert token.value == "See Doctor"

    def test_unicode_operator_aliases(self):
        values = [t.value for t in tokenize("A ⊙ B ⊳ C ⊗ D ⊕ E")]
        assert values == ["A", ";", "B", "->", "C", "|", "D", "&", "E"]

    def test_positions_are_source_offsets(self):
        tokens = list(tokenize("AB -> C"))
        assert [t.position for t in tokens] == [0, 3, 6]

    def test_unexpected_character(self):
        with pytest.raises(PatternSyntaxError):
            list(tokenize("A $ B"))

    def test_unterminated_quote(self):
        with pytest.raises(PatternSyntaxError):
            list(tokenize('"Abc'))

    def test_window_bound_token(self):
        tokens = list(tokenize("A ->[5] B"))
        assert tokens[1].bound == 5

    def test_guard_token(self):
        tokens = list(tokenize("A[out.x > 1] -> B"))
        assert tokens[0].guard == "out.x > 1"


class TestParsing:
    def test_atoms(self):
        assert parse("A") == Atomic("A")
        assert parse("!A") == ~Atomic("A")
        assert parse('"Check In"') == Atomic("Check In")

    @pytest.mark.parametrize("text,cls", [
        ("A ; B", Consecutive),
        ("A -> B", Sequential),
        ("A | B", Choice),
        ("A & B", Parallel),
    ])
    def test_each_operator(self, text, cls):
        pattern = parse(text)
        assert isinstance(pattern, cls)
        assert pattern.left == Atomic("A") and pattern.right == Atomic("B")

    def test_left_associativity(self):
        assert parse("A -> B -> C") == (Atomic("A") >> Atomic("B")) >> Atomic("C")

    def test_parentheses_override_associativity(self):
        assert parse("A -> (B -> C)") == Atomic("A") >> (Atomic("B") >> Atomic("C"))

    def test_consecutive_and_sequential_share_a_level(self):
        # Theorem 4 licenses a shared precedence level for ⊙ and ⊳
        assert parse("A ; B -> C") == (Atomic("A") * Atomic("B")) >> Atomic("C")
        assert parse("A -> B ; C") == (Atomic("A") >> Atomic("B")) * Atomic("C")

    def test_parallel_binds_tighter_than_choice(self):
        pattern = parse("A | B & C")
        assert isinstance(pattern, Choice)
        assert isinstance(pattern.right, Parallel)

    def test_sequence_binds_tighter_than_parallel(self):
        pattern = parse("A -> B & C")
        assert isinstance(pattern, Parallel)
        assert isinstance(pattern.left, Sequential)

    def test_paper_figure4_pattern(self):
        pattern = parse("SeeDoctor -> (UpdateRefer -> GetReimburse)")
        expected = Atomic("SeeDoctor") >> (Atomic("UpdateRefer") >> Atomic("GetReimburse"))
        assert pattern == expected

    def test_deeply_nested(self):
        pattern = parse("((A ; B) | (C & !D)) -> E")
        assert isinstance(pattern, Sequential)
        assert isinstance(pattern.left, Choice)

    def test_whitespace_is_insignificant(self):
        assert parse("A->B") == parse("  A   ->   B  ")


class TestParseErrors:
    @pytest.mark.parametrize("text", [
        "",
        "   ",
        "->",
        "A ->",
        "-> A",
        "A B",
        "(A",
        "A)",
        "()",
        "A | | B",
        "A (B)",
        "(A) (B)",
    ])
    def test_malformed_expressions(self, text):
        with pytest.raises(PatternSyntaxError):
            parse(text)

    def test_error_carries_position_pointer(self):
        with pytest.raises(PatternSyntaxError) as excinfo:
            parse("A -> -> B")
        assert "^" in str(excinfo.value)

    def test_dangling_negation(self):
        with pytest.raises(PatternSyntaxError):
            parse("A -> !")


class TestExtensionSyntax:
    def test_window_bound_builds_within(self):
        from repro.extensions.windows import Within

        pattern = parse("A ->[3] B")
        assert isinstance(pattern, Within)
        assert pattern.bound == 3

    def test_window_roundtrips_through_text(self):
        pattern = parse("A ->[7] B -> C")
        assert parse(str(pattern)) == pattern

    def test_window_bound_must_be_positive_integer(self):
        with pytest.raises(PatternSyntaxError):
            parse("A ->[0] B")
        with pytest.raises(PatternSyntaxError):
            parse("A ->[x] B")
        with pytest.raises(PatternSyntaxError):
            parse("A ->[3 B")

    def test_guard_builds_guarded_atom(self):
        from repro.extensions.conditions import Guarded

        pattern = parse("GetRefer[out.balance > 5000]")
        assert isinstance(pattern, Guarded)
        assert pattern.name == "GetRefer"

    def test_guard_on_negated_atom(self):
        from repro.extensions.conditions import Guarded

        pattern = parse("!A[x == 1]")
        assert isinstance(pattern, Guarded)
        assert pattern.negated

    def test_unterminated_guard(self):
        with pytest.raises(PatternSyntaxError):
            parse("A[x > 1")
