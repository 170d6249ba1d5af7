"""Rewrite rules, each licensed by one of the paper's theorems.

A :class:`RewriteRule` maps a pattern to an equivalent pattern (or ``None``
when it does not apply).  All rules preserve ``incL`` by construction —
each cites the theorem that licenses it — and the test-suite additionally
verifies every rule application by randomized Definition 5 testing.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.algebra import build_left_deep, canonicalize, flatten_assoc
from repro.core.pattern import (
    BinaryPattern,
    Choice,
    Pattern,
)

__all__ = [
    "RewriteRule",
    "REWRITE_RULES",
    "factor_choice",
    "push_choice_out",
    "dedup_choice",
    "apply_bottom_up",
    "normalize",
    "identity",
]


@dataclass(frozen=True)
class RewriteRule:
    """A named, theorem-licensed pattern rewrite.

    ``apply`` returns a rewritten pattern, or ``None`` when the rule does
    not match at the given root.
    """

    name: str
    theorem: str
    apply: Callable[[Pattern], Pattern | None]

    def __repr__(self) -> str:
        return f"RewriteRule({self.name}, licensed by {self.theorem})"


def apply_bottom_up(
    pattern: Pattern, rule: Callable[[Pattern], Pattern | None]
) -> tuple[Pattern, int]:
    """Apply ``rule`` at every node, bottom-up, until fixpoint at each node.

    Returns the rewritten pattern and the number of applications.
    """
    applications = 0
    if isinstance(pattern, BinaryPattern):
        left, left_applications = apply_bottom_up(pattern.left, rule)
        right, right_applications = apply_bottom_up(pattern.right, rule)
        applications = left_applications + right_applications
        if left is not pattern.left or right is not pattern.right:
            pattern = pattern.with_children(left, right)
    # iterate at this node until the rule stops firing
    while True:
        replacement = rule(pattern)
        if replacement is None or replacement == pattern:
            return pattern, applications
        applications += 1
        pattern = replacement


# ---------------------------------------------------------------------------
# Individual rules
# ---------------------------------------------------------------------------

def factor_choice(pattern: Pattern) -> Pattern | None:
    """Factor a common operand out of a choice (Theorem 5, right-to-left).

    ``(p θ q1) ⊗ (p θ q2)  →  p θ (q1 ⊗ q2)`` and symmetrically
    ``(q1 θ p) ⊗ (q2 θ p)  →  (q1 ⊗ q2) θ p``.

    Factoring never increases cost: it halves the number of θ-joins with
    the (typically large) common operand ``p``.
    """
    if not isinstance(pattern, Choice):
        return None
    left, right = pattern.left, pattern.right
    if not isinstance(left, BinaryPattern) or not _same_operator(left, right):
        return None
    if isinstance(left, Choice):
        return None  # nothing to factor out of nested choices
    assert isinstance(right, BinaryPattern)
    if left.left == right.left:
        return left.with_children(left.left, Choice(left.right, right.right))
    if left.right == right.right:
        return left.with_children(Choice(left.left, right.left), left.right)
    return None


def _same_operator(a: Pattern, b: Pattern) -> bool:
    """Whether two nodes carry the same operator, including any extra
    operator parameters (e.g. the window bound of a windowed ⊳)."""
    if type(a) is not type(b) or not isinstance(a, BinaryPattern):
        return False
    for field_info in dataclasses.fields(a):
        if field_info.name in ("left", "right"):
            continue
        if getattr(a, field_info.name) != getattr(b, field_info.name):
            return False
    return True


def push_choice_out(pattern: Pattern) -> Pattern | None:
    """Distribute an operator over a choice operand (Theorem 5,
    left-to-right).

    ``p θ (q1 ⊗ q2) → (p θ q1) ⊗ (p θ q2)`` (and symmetrically).  This
    *duplicates* ``p`` and is only beneficial in special cases (e.g. when a
    branch is empty on the target log), so it is not in the default rule
    set; the planner applies it cost-guardedly.
    """
    if not isinstance(pattern, BinaryPattern) or isinstance(pattern, Choice):
        return None
    if isinstance(pattern.right, Choice):
        q = pattern.right
        return Choice(
            pattern.with_children(pattern.left, q.left),
            pattern.with_children(pattern.left, q.right),
        )
    if isinstance(pattern.left, Choice):
        q = pattern.left
        return Choice(
            pattern.with_children(q.left, pattern.right),
            pattern.with_children(q.right, pattern.right),
        )
    return None


def dedup_choice(pattern: Pattern) -> Pattern | None:
    """Remove duplicate operands from a choice tree.

    ``p ⊗ p ≡ p`` because ``incL(p) ∪ incL(p) = incL(p)`` (set semantics of
    Definition 4); duplicates are detected modulo Theorem 2-4 canonical
    form.
    """
    if not isinstance(pattern, Choice):
        return None
    operands = flatten_assoc(pattern, Choice)
    seen: set[Pattern] = set()
    kept: list[Pattern] = []
    for operand in operands:
        key = canonicalize(operand)
        if key not in seen:
            seen.add(key)
            kept.append(operand)
    if len(kept) == len(operands):
        return None
    return build_left_deep(Choice, kept)


#: Default always-beneficial rule set, applied bottom-up to fixpoint.
REWRITE_RULES: tuple[RewriteRule, ...] = (
    RewriteRule("dedup-choice", "Definition 4 (set semantics)", dedup_choice),
    RewriteRule("factor-choice", "Theorem 5", factor_choice),
)


def normalize(pattern: Pattern) -> tuple[Pattern, list[str]]:
    """The shared normal form: :data:`REWRITE_RULES` applied bottom-up to
    fixpoint, in order.

    This is the single canonicalisation step both the planner
    (:class:`~repro.core.optimizer.planner.Optimizer`) and the static
    analyzer (:mod:`repro.core.lint`) run, so a query is planned in
    exactly the form lint reasoned about.  Returns the rewritten pattern
    and a human-readable description of each rule that fired.
    """
    applied: list[str] = []
    current = pattern
    for rule in REWRITE_RULES:
        current, count = apply_bottom_up(current, rule.apply)
        if count:
            applied.append(f"{rule.name} x{count} (licensed by {rule.theorem})")
    return current, applied


def identity(pattern: Pattern) -> Pattern:
    """The pattern's identity: ``canonicalize(normalize(pattern)[0])``.

    Patterns with one identity are equivalent (Definition 5): every step
    is one of the paper's laws (Theorems 2-5, choice idempotence).  It is
    the result cache's key and the batch's alias rule, so a batch position
    that shares an earlier position's identity shares its incident set.
    """
    return canonicalize(normalize(pattern)[0])
