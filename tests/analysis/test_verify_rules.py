"""Rewrite-rule soundness gating: every shipped rule proves out, and an
intentionally-unsound rule is rejected with a replayable witness."""

import pytest

from repro.analysis import SHIPPED_RULES, verify_rules
from repro.core.eval.naive import NaiveEngine
from repro.core.optimizer.rules import REWRITE_RULES, RewriteRule
from repro.core.pattern import Atomic, Choice, Consecutive, Sequential


def seq_to_consec(pattern):
    """The CI fixture rule: ⊳ → ⊙ — obviously unsound (drops the gap)."""
    if type(pattern) is Sequential:
        return Consecutive(pattern.left, pattern.right)
    return None


UNSOUND_RULE = RewriteRule("seq-to-consec", "bogus", seq_to_consec)


def unsound(report):
    return tuple(v for v in report.verifications if not v.sound)


class TestShippedRules:
    def test_every_shipped_rule_is_proved_sound(self):
        report = verify_rules()
        assert report.ok
        assert unsound(report) == ()
        assert len(report.verifications) == len(SHIPPED_RULES)

    def test_shipped_set_covers_the_optimizer_registry(self):
        names = {rule.name for rule in SHIPPED_RULES}
        assert {rule.name for rule in REWRITE_RULES} <= names
        assert "push-choice-out" in names

    def test_rules_actually_fire_on_the_corpus(self):
        # a soundness pass that never exercises a rule proves nothing
        report = verify_rules()
        fired = {v.rule.name: v.fired for v in report.verifications}
        assert all(count > 0 for count in fired.values()), fired
        for verification in report.verifications:
            assert verification.proved == verification.fired - verification.skipped

    def test_report_format_is_replayable_prose(self):
        text = verify_rules().format()
        assert "SOUND" in text
        assert text.strip().endswith("all rules sound")


class TestUnsoundRuleIsCaught:
    @pytest.fixture(scope="class")
    def report(self):
        return verify_rules(list(REWRITE_RULES) + [UNSOUND_RULE])

    def test_report_flags_exactly_the_bogus_rule(self, report):
        assert not report.ok
        assert [v.rule.name for v in unsound(report)] == ["seq-to-consec"]
        # the sound rules still verify alongside it
        sound = [v for v in report.verifications if v.sound]
        assert {v.rule.name for v in sound} == {r.name for r in REWRITE_RULES}

    def test_failure_carries_a_replayable_witness(self, report):
        failure = unsound(report)[0]
        assert failure.unsound_on is not None
        assert failure.rewritten_to is not None
        w = failure.witness
        assert w is not None
        assert w.replay()
        engine = NaiveEngine()
        in_original = w.incident in engine.evaluate(w.log, failure.unsound_on)
        in_rewritten = w.incident in engine.evaluate(w.log, failure.rewritten_to)
        assert in_original != in_rewritten

    def test_failure_formats_with_the_trace(self, report):
        text = unsound(report)[0].format()
        assert "UNSOUND" in text
        assert "counterexample trace" in text
        assert "seq-to-consec" in text

    def test_custom_corpus_is_honoured(self):
        a, b = Atomic("A"), Atomic("B")
        corpus = [Sequential(a, b), Choice(a, b)]
        report = verify_rules([UNSOUND_RULE], corpus=corpus)
        assert not report.ok
        assert unsound(report)[0].unsound_on == Sequential(a, b)

    def test_rule_that_never_fires_is_vacuously_sound(self):
        inert = RewriteRule("inert", "n/a", lambda pattern: None)
        report = verify_rules([inert])
        assert report.ok
        assert report.verifications[0].fired == 0
        assert "never fired" in report.verifications[0].format()
