"""Unit tests for attribute guards (conditions extension)."""

import random

import pytest

from repro.core.errors import PatternSyntaxError
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.model import LogRecord
from repro.core.parser import parse
from repro.core.query import Query
from repro.extensions.conditions import (
    AllOf,
    AnyOf,
    Compare,
    Exists,
    Guarded,
    Not,
    attr,
    parse_guard,
)


def record(activity="A", attrs_in=None, attrs_out=None):
    return LogRecord(
        lsn=2, wid=1, is_lsn=2, activity=activity,
        attrs_in=attrs_in or {}, attrs_out=attrs_out or {},
    )


class TestCompare:
    def test_numeric_comparisons(self):
        r = record(attrs_out={"balance": 1000})
        assert Compare("out", "balance", ">", 500).evaluate(r)
        assert Compare("out", "balance", ">=", 1000).evaluate(r)
        assert not Compare("out", "balance", "<", 1000).evaluate(r)
        assert Compare("out", "balance", "==", 1000).evaluate(r)
        assert Compare("out", "balance", "!=", 1).evaluate(r)

    def test_missing_attribute_is_false(self):
        assert not Compare("out", "ghost", "==", 1).evaluate(record())

    def test_scope_selection(self):
        r = record(attrs_in={"x": 1}, attrs_out={"x": 2})
        assert Compare("in", "x", "==", 1).evaluate(r)
        assert Compare("out", "x", "==", 2).evaluate(r)
        # "any" prefers the output (post-activity) value
        assert Compare("any", "x", "==", 2).evaluate(r)

    def test_type_mismatch_is_false_not_error(self):
        r = record(attrs_out={"x": "string"})
        assert not Compare("out", "x", ">", 5).evaluate(r)

    def test_contains_operator(self):
        r = record(attrs_out={"hospital": "Public Hospital"})
        assert Compare("out", "hospital", "~=", "Public").evaluate(r)
        assert not Compare("out", "hospital", "~=", "Private").evaluate(r)

    def test_validation(self):
        with pytest.raises(ValueError):
            Compare("nowhere", "x", "==", 1)
        with pytest.raises(ValueError):
            Compare("out", "x", "===", 1)


class TestCombinators:
    def test_exists(self):
        r = record(attrs_in={"x": None})
        assert Exists("in", "x").evaluate(r)
        assert not Exists("out", "x").evaluate(r)

    def test_boolean_combinators(self):
        r = record(attrs_out={"a": 1, "b": 2})
        a = Compare("out", "a", "==", 1)
        b = Compare("out", "b", "==", 99)
        assert (a | b).evaluate(r)
        assert not (a & b).evaluate(r)
        assert (~b).evaluate(r)
        assert isinstance(a & b, AllOf) and isinstance(a | b, AnyOf)
        assert isinstance(~a, Not)

    def test_attrref_fluent_builders(self):
        reference = attr("out.balance")
        assert (reference > 5).op == ">"
        assert (reference >= 5).op == ">="
        assert (reference < 5).op == "<"
        assert (reference <= 5).op == "<="
        assert (reference == 5).op == "=="
        assert (reference != 5).op == "!="

    def test_attr_parsing(self):
        assert attr("out.balance").scope == "out"
        assert attr("balance").scope == "any"
        with pytest.raises(ValueError):
            attr("weird.name")
        with pytest.raises(ValueError):
            attr("out.")


class TestGuardedPattern:
    def test_matches_requires_name_and_condition(self):
        guard = Guarded("GetRefer", False, attr("out.balance") > 500)
        assert guard.matches(record("GetRefer", attrs_out={"balance": 1000}))
        assert not guard.matches(record("GetRefer", attrs_out={"balance": 100}))
        assert not guard.matches(record("Other", attrs_out={"balance": 1000}))

    def test_guarded_composes_with_operators(self, figure3_log):
        pattern = Guarded("GetRefer", False, attr("out.balance") >= 2000) >> "CheckIn"
        result = VectorizedEngine().evaluate(figure3_log, pattern)
        assert result.lsn_sets() == {frozenset({5, 8})}

    def test_engines_agree_on_guarded_patterns(self, clinic_log):
        pattern = parse("GetRefer[out.balance >= 5000] -> GetReimburse")
        assert NaiveEngine().evaluate(clinic_log, pattern) == (
            VectorizedEngine().evaluate(clinic_log, pattern)
        )

    def test_query_integration(self, figure3_log):
        assert Query("GetRefer[out.balance >= 2000]").count(figure3_log) == 1


class TestParseGuard:
    def test_simple_comparison(self):
        condition = parse_guard("out.balance > 5000")
        assert isinstance(condition, Compare)
        assert condition.value == 5000

    def test_string_and_boolean_literals(self):
        r = record(attrs_out={"state": "active", "flag": True})
        assert parse_guard('out.state == "active"').evaluate(r)
        assert parse_guard("out.flag == true").evaluate(r)

    def test_float_and_negative_literals(self):
        r = record(attrs_out={"x": -1.5})
        assert parse_guard("out.x == -1.5").evaluate(r)
        assert parse_guard("out.x < 0").evaluate(r)

    def test_and_or_precedence(self):
        r = record(attrs_out={"a": 1})
        # (a==1 and a==2) or a==1  → true; if 'or' bound tighter it'd differ
        assert parse_guard("a == 1 and a == 2 or a == 1").evaluate(r)
        assert not parse_guard("a == 2 or a == 3 and a == 1").evaluate(r)

    def test_not_and_parentheses(self):
        r = record(attrs_out={"a": 1})
        assert parse_guard("not (a == 2)").evaluate(r)
        assert parse_guard("not a == 2 and a == 1").evaluate(r)

    def test_bare_reference_means_exists(self):
        r = record(attrs_out={"a": 1})
        assert parse_guard("out.a").evaluate(r)
        assert not parse_guard("out.b").evaluate(r)

    @pytest.mark.parametrize("text", [
        "", "and", "a ==", "a == ==", "(a == 1", "a == 1)", 'x == "unclosed',
        "a == 1 extra",
    ])
    def test_malformed_guards(self, text):
        with pytest.raises(PatternSyntaxError):
            parse_guard(text)

    def test_guard_differential_with_unguarded_filtering(self, clinic_log):
        """A guarded query must equal filtering the unguarded one."""
        guarded = Query("GetRefer[out.balance >= 5000]").run(clinic_log)
        manual = {
            o for o in Query("GetRefer").run(clinic_log)
            if o.records[0].attrs_out.get("balance", 0) >= 5000
        }
        assert set(guarded) == manual


class TestGuardTextRoundtrip:
    @pytest.mark.parametrize("guard", [
        "out.balance > 5000",
        'in.state == "active"',
        "x >= 1.5 and y < 2",
        "a == 1 or b == 2 and c == 3",
        "not (a == 1)",
        "out.flag == true or out.flag == false",
        "out.opt == null",
        "out.present",
        'h ~= "Hospital"',
        "(a == 1 or b == 2) and not (c > 3)",
    ])
    def test_parse_render_parse_fixpoint(self, guard):
        condition = parse_guard(guard)
        rendered = condition.to_guard_text()
        assert parse_guard(rendered) == condition

    def test_guarded_pattern_full_roundtrip(self):
        texts = [
            'A[out.x > 1]',
            '!A[out.x > 1] -> B',
            'A[a == 1 and b == 2] | B[c == 3 or d == 4]',
            '"Sp aced"[x == "y z"] ; C',
        ]
        for text in texts:
            pattern = parse(text)
            assert parse(str(pattern)) == pattern, text

    def test_double_quotes_inside_strings_are_stripped(self):
        condition = Compare("out", "x", "==", 'say "hi"')
        rendered = condition.to_guard_text()
        # renders to a parseable guard (quotes dropped, not escaped)
        assert parse_guard(rendered).value == "say hi"
