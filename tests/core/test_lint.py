"""Unit tests for :mod:`repro.core.lint`.

Every diagnostic code in the catalogue gets at least one positive test
(the code fires, with the right severity/span/message) and one negative
test (a nearby-but-clean query does not trigger it).
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.lint import (
    DIAGNOSTIC_CODES,
    Diagnostic,
    Linter,
    Severity,
    format_diagnostics,
    lint_batch,
)
from repro.core.model import Log
from repro.core.optimizer import CostModel, LogStatistics, Optimizer, identity, normalize
from repro.core.parser import SourceSpan, parse, parse_with_spans
from repro.core.pattern import (
    Atomic,
    Choice,
    Consecutive,
    Parallel,
    Sequential,
    to_text,
)
from repro.workflow.models import clinic_referral_workflow


def codes(diagnostics):
    return [d.code for d in diagnostics]


def only(diagnostics, code):
    matching = [d for d in diagnostics if d.code == code]
    assert matching, f"expected a {code}, got {codes(diagnostics)}"
    return matching[0]



def covered(span, text):
    """The source text a span covers."""
    return text[span.start : span.end]

@pytest.fixture(scope="module")
def abc_log() -> Log:
    return Log.from_traces([["A", "B", "C"], ["A", "C", "B"]])


@pytest.fixture(scope="module")
def clinic_linter() -> Linter:
    return Linter.for_context(spec=clinic_referral_workflow())


# ---------------------------------------------------------------------------
# parser spans
# ---------------------------------------------------------------------------


class TestSpans:
    def test_atom_spans(self):
        result = parse_with_spans("A -> Ghost")
        root = result.pattern
        assert result.span(root) == SourceSpan(0, 10)
        assert covered(result.span(root.left), result.text) == "A"
        assert covered(result.span(root.right), result.text) == "Ghost"

    def test_operator_span_excludes_parentheses(self):
        result = parse_with_spans("(A ; B) | C")
        inner = result.pattern.left
        assert covered(result.span(inner), result.text) == "A ; B"
        # a composite takes in its operands' grouping parentheses
        assert result.span(result.pattern) == SourceSpan(0, 11)
        result = parse_with_spans("(B -> A) | (A -> B)")
        assert result.span(result.pattern) == SourceSpan(0, 19)
        assert covered(result.span(result.pattern.right), result.text) == "A -> B"
        result = parse_with_spans("(A -> B)")
        assert result.span(result.pattern) == SourceSpan(1, 7)

    def test_quoted_and_negated_atom_spans(self):
        result = parse_with_spans('"Check In" -> !B')
        assert result.span(result.pattern.left) == SourceSpan(0, 10)
        assert covered(result.span(result.pattern.right), result.text) == "!B"

    def test_foreign_node_has_no_span(self):
        result = parse_with_spans("A")
        # Atomic("A") is *equal* to the parsed atom but not the same object;
        # the side table is keyed by identity
        assert result.span(Atomic("A")) is None

    def test_parse_agrees_with_parse_with_spans(self):
        text = "A ; B | C & D"
        assert parse(text) == parse_with_spans(text).pattern

    def test_caret_line(self):
        assert SourceSpan(2, 5).caret_line() == "  ^^^"
        assert SourceSpan(3, 3).caret_line() == "   ^"

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            SourceSpan(5, 2)
        with pytest.raises(ValueError):
            SourceSpan(-1, 0)


# ---------------------------------------------------------------------------
# QW101 / QW102 — vocabulary
# ---------------------------------------------------------------------------


class TestVocabulary:
    def test_qw101_unknown_activity(self, abc_log):
        diagnostics = Linter.for_log(abc_log).lint("A ; Ghost")
        d = only(diagnostics, "QW101")
        assert d.severity == Severity.ERROR
        assert covered(d.span, "A ; Ghost") == "Ghost"
        assert "never occurs" in d.message

    def test_qw101_did_you_mean(self, abc_log):
        log = Log.from_traces([["CheckIn", "SeeDoctor"]])
        d = only(Linter.for_log(log).lint("ChekIn"), "QW101")
        assert "CheckIn" in (d.suggestion or "")

    def test_qw101_negative_known_activities(self, abc_log):
        assert Linter.for_log(abc_log).lint("A ; B") == []

    def test_qw101_negative_negated_unknown_is_harmless(self, abc_log):
        # ¬Ghost matches every record, so no vocabulary error (and no QW201)
        assert Linter.for_log(abc_log).lint("!Ghost ; A") == []

    def test_qw102_activity_outside_spec(self, clinic_linter):
        diagnostics = clinic_linter.lint("CheckIn -> Ghost")
        d = only(diagnostics, "QW102")
        assert d.severity == Severity.ERROR
        assert covered(d.span, "CheckIn -> Ghost") == "Ghost"

    def test_qw102_negative_declared_activity(self, clinic_linter):
        assert "QW102" not in codes(clinic_linter.lint("GetRefer -> CheckIn"))


# ---------------------------------------------------------------------------
# QW201 — unsatisfiability (always relative to a context)
# ---------------------------------------------------------------------------


class TestUnsatisfiability:
    def test_qw201_from_missing_vocabulary(self, abc_log):
        d = only(Linter.for_log(abc_log).lint("A ; Ghost"), "QW201")
        assert d.severity == Severity.ERROR
        assert "never produce an incident" in d.message

    def test_qw201_from_spec_ordering(self, clinic_linter):
        # the clinic workflow never checks in before the referral is issued
        diagnostics = clinic_linter.lint("CheckIn -> GetRefer")
        d = only(diagnostics, "QW201")
        assert "no run of the workflow specification holds an incident" in d.message
        assert "QW101" not in codes(diagnostics)
        assert "QW102" not in codes(diagnostics)

    @pytest.mark.parametrize("text", [
        # CheckIn always sits between the referral and the first visit
        "GetRefer ->[1] SeeDoctor",
        # the clinic model has max_visits=4
        "SeeDoctor & SeeDoctor & SeeDoctor & SeeDoctor & SeeDoctor",
    ])
    def test_qw201_from_the_spec_runs(self, clinic_linter, text):
        d = only(clinic_linter.lint(text), "QW201")
        assert repr(text) in d.message

    @pytest.mark.parametrize("text", [
        "GetRefer ->[2] SeeDoctor",
        "SeeDoctor & SeeDoctor & SeeDoctor & SeeDoctor",
    ])
    def test_qw201_negative_some_spec_run_matches(self, clinic_linter, text):
        assert "QW201" not in codes(clinic_linter.lint(text))

    def test_qw201_guarded_query_refuted_through_its_plain_atoms(self, clinic_linter):
        # a guard only removes matches, so the unguarded refutation holds
        text = 'CheckIn[out.referState == "active"] -> GetRefer'
        only(clinic_linter.lint(text), "QW201")

    def test_qw201_from_record_overdemand(self):
        log = Log.from_traces([["A", "B"]])
        d = only(Linter.for_log(log).lint("B & B"), "QW201")
        assert "disjoint" in d.message and "2" in d.message

    def test_qw201_choice_needs_all_branches_dead(self, abc_log):
        diagnostics = Linter.for_log(abc_log).lint("Ghost | Phantom")
        d = only(diagnostics, "QW201")
        assert "no alternative" in d.message

    def test_qw201_locus_points_at_deepest_empty_subexpression(self, abc_log):
        text = "A ; (B ; Ghost)"
        d = only(Linter.for_log(abc_log).lint(text), "QW201")
        assert covered(d.span, text) == "Ghost"

    def test_qw201_negative_satisfiable(self, abc_log):
        assert Linter.for_log(abc_log).lint("A ; B") == []

    def test_qw201_negative_t_then_not_t(self, abc_log):
        # t ⊙ ¬t is satisfiable in this algebra: a t record directly
        # followed by any other record
        assert Linter.for_log(abc_log).lint("A ; !A") == []

    def test_qw201_negative_without_context(self):
        # with no log and no spec there is nothing to refute against
        assert Linter().lint("Ghost ; !Ghost") == []


# ---------------------------------------------------------------------------
# QW202 — dead choice branches
# ---------------------------------------------------------------------------


class TestDeadBranches:
    def test_qw202_dead_branch(self, clinic_linter):
        text = "(CheckIn -> GetRefer) | (GetRefer -> CheckIn)"
        diagnostics = clinic_linter.lint(text)
        d = only(diagnostics, "QW202")
        assert d.severity == Severity.WARNING
        assert covered(d.span, text) == "CheckIn -> GetRefer"
        assert "GetRefer -> CheckIn" in (d.suggestion or "")
        # the query as a whole still matches via the live branch
        assert "QW201" not in codes(diagnostics)

    def test_qw202_negative_both_branches_live(self, clinic_linter):
        assert "QW202" not in codes(clinic_linter.lint("GetRefer | CheckIn"))

    def test_qw202_negative_both_branches_dead(self, abc_log):
        # both dead -> whole-query QW201, not a per-branch warning
        diagnostics = Linter.for_log(abc_log).lint("Ghost | Phantom")
        assert "QW202" not in codes(diagnostics)
        assert "QW201" in codes(diagnostics)


# ---------------------------------------------------------------------------
# QW301 / QW302 — redundancy
# ---------------------------------------------------------------------------


class TestRedundancy:
    def test_qw301_duplicate_choice_operand(self):
        text = "A | B | A"
        d = only(Linter().lint(text), "QW301")
        assert d.severity == Severity.WARNING
        assert d.span == SourceSpan(8, 9)  # the second A
        assert "A | B" in (d.suggestion or "")

    def test_qw301_modulo_theorem_normalization(self):
        # equal after re-association (Theorem 2), not syntactically
        text = "(A -> (B -> C)) | ((A -> B) -> C)"
        assert "QW301" in codes(Linter().lint(text))

    def test_qw301_negative_distinct_operands(self):
        assert Linter().lint("A | B") == []

    def test_qw302_duplicate_parallel_operand(self):
        d = only(Linter().lint("A & B & A"), "QW302")
        assert d.severity == Severity.INFO
        assert "disjoint occurrences" in d.message

    def test_qw302_negative_distinct_operands(self):
        assert Linter().lint("A & B") == []


# ---------------------------------------------------------------------------
# QW501 / QW502 — proved subsumption, read off the batch plan
# ---------------------------------------------------------------------------


def qw501(batch):
    """Position -> the QW501 finding of ``lint_batch(batch)``."""
    return {
        j: d
        for j, diagnostics in enumerate(lint_batch(batch))
        for d in diagnostics
        if d.code == "QW501"
    }


def patterns_on_abc():
    return st.recursive(
        st.builds(Atomic, st.sampled_from("ABC"), st.booleans()),
        lambda children: st.builds(
            lambda cls, l, r: cls(l, r),
            st.sampled_from((Consecutive, Sequential, Choice, Parallel)),
            children,
            children,
        ),
        max_leaves=3,
    )


class TestPlannedSubsumption:
    def test_qw501_names_the_sibling_an_alias_shares(self):
        # C and B are strictly contained in B | C: scanned, no finding
        found = qw501(["B | C", "C", "B", "B"])
        assert sorted(found) == [3]
        assert found[3].message == (
            "query is provably equivalent to batch sibling #3 ('B'): the "
            "batch planner evaluates that sibling once and shares its "
            "incident set"
        )

    def test_qw501_alias_severity_and_span(self):
        found = qw501(["B | A", "A | B"])
        assert sorted(found) == [1]
        assert found[1].severity == Severity.INFO
        assert found[1].span == SourceSpan(0, 5)
        # the caret starts at the query's first parenthesis
        found = qw501(["(A -> B) | (B -> A)", "(B -> A) | (A -> B)"])
        assert found[1].span == SourceSpan(0, 19)

    def test_qw501_silent_for_a_strictly_contained_sibling(self):
        # the batch scans both: a strict containment earns no skip
        assert qw501(["A ; B", "A -> B"]) == {}

    def test_qw501_silent_for_a_prover_only_equivalence(self):
        # equivalent (Definition 5), but with different normal forms: the
        # batch scans both, so lint names no alias
        assert qw501(["(A -> B) | (B -> A)", "A & B"]) == {}

    def test_qw501_covers_every_batch_the_planner_plans(self):
        batch = ["A"] * 29 + ["A -> B"]
        assert sorted(qw501(batch)) == list(range(1, 29))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(patterns_on_abc(), min_size=2, max_size=5))
    def test_qw501_is_the_plan(self, batch):
        found = qw501(batch)
        first: dict = {}
        for j, pattern in enumerate(batch):
            i = first.setdefault(identity(pattern), j)
            if i == j:
                assert j not in found
                continue
            message = found[j].message
            assert f"batch sibling #{i + 1} " in message
            assert message.startswith("query is provably equivalent to ")

    def test_qw502_proved_subsumed_operand(self):
        d = only(Linter().lint("(A ; B) | (A -> B)"), "QW502")
        assert d.severity == Severity.WARNING
        assert d.span == SourceSpan(1, 6)
        assert d.suggestion == "equivalent without the subsumed operand: A -> B"

    def test_qw502_leaves_a_syntactic_duplicate_to_qw301(self):
        diagnostics = Linter().lint("(A ; B) | (A -> B) | (A ; B)")
        assert [(d.code, d.span) for d in diagnostics] == [
            ("QW502", SourceSpan(1, 6)),
            ("QW301", SourceSpan(22, 27)),
        ]

    def test_qw502_negative_incomparable_operands(self):
        assert Linter().lint("(A ; B) | (B ; A)") == []


# ---------------------------------------------------------------------------
# QW401 / QW402 — complexity
# ---------------------------------------------------------------------------


class TestComplexity:
    def test_qw401_without_log_uses_theorem1_bound(self):
        text = "A ; B ; C ; D ; E ; F ; G ; H"  # 7 pairwise operators
        d = only(Linter().lint(text), "QW401")
        assert d.severity == Severity.WARNING
        assert "Theorem 1" in d.message

    def test_qw401_negative_small_pattern(self):
        assert "QW401" not in codes(Linter().lint("A ; B ; C"))

    def test_qw401_with_log_uses_cost_model(self, abc_log):
        linter = Linter.for_log(abc_log, cost_threshold=0.0, incident_threshold=0.0)
        d = only(linter.lint("A -> B"), "QW401")
        assert "estimated evaluation blowup" in d.message
        assert d.suggestion is not None

    def test_qw401_negative_with_generous_thresholds(self, abc_log):
        assert "QW401" not in codes(Linter.for_log(abc_log).lint("A -> B"))

    def test_qw402_factorable_choice(self):
        text = "(A ; B) | (A ; C)"
        d = only(Linter().lint(text), "QW402")
        assert d.severity == Severity.INFO
        assert "Theorem 5" in d.message
        assert "B | C" in (d.suggestion or "")

    def test_qw402_includes_cost_estimates_with_log(self, abc_log):
        d = only(Linter.for_log(abc_log).lint("(A ; B) | (A ; C)"), "QW402")
        assert "estimated cost" in d.message

    def test_qw402_negative_already_factored(self):
        assert "QW402" not in codes(Linter().lint("A ; (B | C)"))


# ---------------------------------------------------------------------------
# one canonicalizer shared by lint and the planner
# ---------------------------------------------------------------------------


class TestSharedNormalForm:
    def test_qw402_suggestion_is_the_planner_normal_form(self, abc_log):
        pattern = parse("(A ; B) | (A ; C)")
        normalized, applied = normalize(pattern)
        assert any(step.startswith("factor-choice") for step in applied)

        d = only(Linter.for_log(abc_log).lint("(A ; B) | (A ; C)"), "QW402")
        assert to_text(normalized) in (d.suggestion or "")

        plan = Optimizer.for_log(abc_log).optimize(pattern)
        assert any("factor-choice" in t for t in plan.transformations)

    def test_planner_reaches_lint_normal_form(self, abc_log):
        # dedup + factoring happen inside normalize(), so the plan starts
        # from exactly the shape lint reasoned about
        pattern = parse("(A ; B) | (A ; B)")
        normalized, applied = normalize(pattern)
        assert normalized == parse("A ; B")
        assert any(step.startswith("dedup-choice") for step in applied)


# ---------------------------------------------------------------------------
# Diagnostic plumbing
# ---------------------------------------------------------------------------


class TestDiagnosticObjects:
    def test_all_emitted_codes_are_catalogued(self, abc_log, clinic_linter):
        emitted = set()
        emitted.update(codes(Linter.for_log(abc_log).lint("A ; Ghost")))
        emitted.update(codes(clinic_linter.lint("CheckIn -> Ghost")))
        emitted.update(
            codes(clinic_linter.lint("(CheckIn -> GetRefer) | (GetRefer -> CheckIn)"))
        )
        emitted.update(codes(Linter().lint("A | B | A")))
        emitted.update(codes(Linter().lint("A & B & A")))
        emitted.update(codes(Linter().lint("A ; B ; C ; D ; E ; F ; G ; H")))
        emitted.update(codes(Linter().lint("(A ; B) | (A ; C)")))
        emitted.update(codes(Linter().lint("(A ; B) | (A -> B)")))
        for diagnostics in lint_batch(["A & B", "B & A"]):
            emitted.update(codes(diagnostics))
        assert emitted == set(DIAGNOSTIC_CODES)

    def test_format_with_text_renders_caret(self):
        d = Diagnostic("QW101", Severity.ERROR, "boom", span=SourceSpan(4, 9))
        rendered = d.format("A ; Ghost")
        assert "QW101 error at 4-9: boom" in rendered
        assert "    A ; Ghost" in rendered
        assert "    " + " " * 4 + "^^^^^" in rendered

    def test_format_without_span(self):
        d = Diagnostic("QW301", Severity.WARNING, "dup", suggestion="drop it")
        rendered = d.format()
        assert rendered.splitlines() == [
            "QW301 warning: dup",
            "  suggestion: drop it",
        ]

    def test_to_dict(self):
        d = Diagnostic("QW201", Severity.ERROR, "m", span=SourceSpan(1, 3))
        assert d.to_dict() == {
            "code": "QW201",
            "severity": "error",
            "message": "m",
            "span": [1, 3],
            "suggestion": None,
        }

    def test_format_diagnostics_empty(self):
        assert format_diagnostics([]) == "no diagnostics"

    def test_diagnostics_sorted_by_source_position(self, abc_log):
        text = "Ghost ; A ; Phantom"
        diagnostics = Linter.for_log(abc_log).lint(text)
        starts = [d.span.start for d in diagnostics if d.span is not None]
        assert starts == sorted(starts)

    def test_dsl_patterns_lint_without_spans(self, abc_log):
        pattern = Atomic("A") * Atomic("Ghost")
        diagnostics = Linter.for_log(abc_log).lint(pattern)
        assert "QW101" in codes(diagnostics)
        assert all(d.span is None for d in diagnostics)

    def test_lint_accepts_parse_result(self, abc_log):
        result = parse_with_spans("A ; Ghost")
        diagnostics = Linter.for_log(abc_log).lint(result)
        assert "QW101" in codes(diagnostics)
        assert only(diagnostics, "QW101").span is not None
