"""Static soundness verification of the optimizer's rewrite rules.

``verify_rules()`` proves — not samples — that every registered rewrite
is equivalence-preserving: each rule is applied bottom-up over a corpus
of patterns, and every application that changed the pattern is checked
with the containment prover.  An unsound rule is reported with the
corpus pattern it mangled and a concrete :class:`~repro.analysis.prover.
Witness` trace that the rewritten form classifies differently, so a CI
failure is immediately replayable (``repro-logs analyze --rules``).

The corpus is exhaustive over all two-operator patterns on two letters
(this is where every shipped rule's redexes live) plus seeded random
patterns over three letters with negation, plus windowed-⊳ fixtures —
small scope, but a rewrite rule is a *local* transformation, so a bug
shows up on small redexes or not at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.prover import PatternProver, Witness, default_prover
from repro.core.errors import AnalysisBudgetError, UnsupportedPatternError
from repro.core.optimizer.rules import (
    REWRITE_RULES,
    RewriteRule,
    apply_bottom_up,
    push_choice_out,
)
from repro.core.pattern import (
    Atomic,
    Choice,
    Consecutive,
    Pattern,
    Sequential,
    enumerate_patterns,
    random_pattern,
    to_text,
)
from repro.extensions.windows import Within

__all__ = [
    "SHIPPED_RULES",
    "RuleVerification",
    "RuleReport",
    "default_corpus",
    "verify_rules",
]

#: Every rewrite the optimizer layer ships: the default normal-form set
#: plus the cost-guarded distribution rule the planner applies on demand.
SHIPPED_RULES: tuple[RewriteRule, ...] = REWRITE_RULES + (
    RewriteRule("push-choice-out", "Theorem 5", push_choice_out),
)


def default_corpus(*, samples: int = 40, seed: int = 7) -> list[Pattern]:
    """The standard verification corpus (see the module docstring)."""
    corpus: list[Pattern] = list(enumerate_patterns(["A", "B"], 2))
    rng = random.Random(seed)
    for _ in range(samples):
        corpus.append(random_pattern(rng, ["A", "B", "C"], max_depth=3))
    a, b, c = Atomic("A"), Atomic("B"), Atomic("C")
    corpus += [
        Choice(Within(a, b, bound=2), Within(a, c, bound=2)),
        Choice(Within(a, b, bound=2), Within(a, b, bound=3)),
        Sequential(a, Choice(b, c)),
        Consecutive(Choice(a, b), Choice(a, b)),
    ]
    return corpus


@dataclass(frozen=True)
class RuleVerification:
    """The prover's verdict on one rewrite rule."""

    rule: RewriteRule
    checked: int          # corpus patterns the rule was applied to
    fired: int            # patterns the rule actually changed
    proved: int           # changed patterns proved equivalent
    skipped: int          # proofs abandoned on state budget
    unsound_on: Pattern | None = None
    rewritten_to: Pattern | None = None
    witness: Witness | None = None

    @property
    def sound(self) -> bool:
        return self.witness is None

    def format(self) -> str:
        if self.sound:
            detail = f"{self.proved} rewrite(s) proved equivalence-preserving"
            if self.skipped:
                detail += f", {self.skipped} skipped on budget"
            if not self.fired:
                detail = "never fired on the corpus"
            return f"rule {self.rule.name!r} ({self.rule.theorem}): SOUND — {detail}"
        assert self.unsound_on is not None and self.rewritten_to is not None
        assert self.witness is not None
        return (
            f"rule {self.rule.name!r} ({self.rule.theorem}): UNSOUND\n"
            f"  rewrote {to_text(self.unsound_on)!r} to "
            f"{to_text(self.rewritten_to)!r}, which is not equivalent:\n"
            + "\n".join("  " + line for line in self.witness.format().splitlines())
        )


@dataclass(frozen=True)
class RuleReport:
    """Aggregate result of :func:`verify_rules`."""

    verifications: tuple[RuleVerification, ...]

    @property
    def ok(self) -> bool:
        return all(v.sound for v in self.verifications)

    def format(self) -> str:
        lines = [v.format() for v in self.verifications]
        verdict = "all rules sound" if self.ok else (
            f"{sum(not v.sound for v in self.verifications)} unsound rule(s)"
        )
        lines.append(f"verified {len(self.verifications)} rule(s): {verdict}")
        return "\n".join(lines)


def verify_rules(
    rules: Sequence[RewriteRule] = SHIPPED_RULES,
    *,
    corpus: Iterable[Pattern] | None = None,
    samples: int = 40,
    seed: int = 7,
    prover: PatternProver | None = None,
) -> RuleReport:
    """Prove every rule in ``rules`` equivalence-preserving over the
    corpus; an unsound rule is reported with a replayable witness."""
    prover = prover or default_prover()
    patterns = list(corpus) if corpus is not None \
        else default_corpus(samples=samples, seed=seed)
    verifications = []
    for rule in rules:
        checked = fired = proved = skipped = 0
        failure: tuple[Pattern, Pattern, Witness] | None = None
        for pattern in patterns:
            checked += 1
            rewritten, count = apply_bottom_up(pattern, rule.apply)
            if count == 0 or rewritten == pattern:
                continue
            fired += 1
            try:
                counterexample = prover.witness(pattern, rewritten)
            except (AnalysisBudgetError, UnsupportedPatternError):
                skipped += 1
                continue
            if counterexample is None:
                proved += 1
            else:
                failure = (pattern, rewritten, counterexample)
                break
        verifications.append(
            RuleVerification(
                rule=rule,
                checked=checked,
                fired=fired,
                proved=proved,
                skipped=skipped,
                unsound_on=failure[0] if failure else None,
                rewritten_to=failure[1] if failure else None,
                witness=failure[2] if failure else None,
            )
        )
    return RuleReport(tuple(verifications))
