"""Algebraic laws of the pattern operators (Section 4 of the paper).

Implements the equivalences proven in Theorems 2-5 as executable rewrite
steps and a canonicalisation procedure built from them (patterns with
equal canonical forms are equivalent; the converse does not hold), plus
:func:`random_logs`, the battery of small random logs the property-based
test-suite checks Definition 5 on.

The laws, for all patterns ``p1, p2, p3`` and operators
``θ ∈ {⊙, ⊳, ⊗, ⊕}``:

* **Theorem 2** (associativity): ``(p1 θ p2) θ p3 ≡ p1 θ (p2 θ p3)``.
* **Theorem 3** (commutativity): ``p1 ⊗ p2 ≡ p2 ⊗ p1`` and
  ``p1 ⊕ p2 ≡ p2 ⊕ p1`` (⊙ and ⊳ are *not* commutative).
* **Theorem 4** (⊙/⊳ interchange): ``p1 ⊙ (p2 ⊳ p3) ≡ (p1 ⊙ p2) ⊳ p3`` and
  ``p1 ⊳ (p2 ⊙ p3) ≡ (p1 ⊳ p2) ⊙ p3``.
* **Theorem 5** (distributivity over choice):
  ``p1 θ (p2 ⊗ p3) ≡ (p1 θ p2) ⊗ (p1 θ p3)`` and symmetrically on the right.

.. note::
   The useful reading of Theorems 2+4 is the *gap model*: a maximal ⊙/⊳
   chain denotes a sequence of items with one constraint per gap between
   adjacent items (exactly-adjacent for ⊙, strictly-precedes for ⊳), and
   any parenthesisation that keeps each operator attached to its gap is
   equivalent.  (The last sentence of the paper's Theorem 4 proof writes
   ``p1 ⊳ (p2 ⊙ p3)`` where ``(p1 ⊙ p2) ⊳ p3`` is meant — a typo; the
   theorem statement itself matches the gap model.)  See
   :func:`flatten_chain`.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence

from repro.core.model import Log
from repro.core.pattern import (
    Atomic,
    BinaryPattern,
    Choice,
    Consecutive,
    Pattern,
    Sequential,
)

__all__ = [
    "flatten_chain",
    "flatten_assoc",
    "build_left_deep",
    "canonicalize",
    "choice_normal_form",
    "random_logs",
]


# ---------------------------------------------------------------------------
# Chain views (Theorems 2 and 4)
# ---------------------------------------------------------------------------

def flatten_chain(
    pattern: Pattern,
) -> tuple[list[Pattern], list[BinaryPattern]]:
    """Flatten a maximal ⊙/⊳ chain into ``(items, gap_operators)``.

    A pattern like ``(a ⊙ b) ⊳ (c ⊙ d)`` flattens to items ``[a, b, c, d]``
    with gaps ``[⊙, ⊳, ⊙]``: each gap operator constrains the boundary
    between two adjacent items, independent of parenthesisation (this is
    the content of Theorems 2 and 4).  Sub-patterns whose top operator is
    ⊗ or ⊕ are treated as chain items.

    Gaps are returned as the original operator *nodes* (templates): use
    ``gap.with_children(l, r)`` to rebuild, so operator subclasses with
    extra fields (windowed ⊳) keep them.
    """
    if not isinstance(pattern, (Consecutive, Sequential)):
        return [pattern], []
    # the operator constrains exactly the gap between the last item of its
    # left subtree and the first item of its right subtree, so placing it
    # between the two halves keeps gaps[i] aligned with the boundary
    # items[i] / items[i+1]
    left_items, left_gaps = flatten_chain(pattern.left)
    right_items, right_gaps = flatten_chain(pattern.right)
    return left_items + right_items, [*left_gaps, pattern, *right_gaps]


def flatten_assoc(pattern: Pattern, cls: type) -> list[Pattern]:
    """Flatten nested applications of one associative operator ``cls``
    (Theorem 2) into the list of its operands, left to right."""
    if isinstance(pattern, cls):
        return flatten_assoc(pattern.left, cls) + flatten_assoc(pattern.right, cls)
    return [pattern]


def build_left_deep(cls: type, operands: Sequence[Pattern]) -> Pattern:
    """Left-deep tree of ``cls`` over ``operands``."""
    if not operands:
        raise ValueError("need at least one operand")
    result = operands[0]
    for operand in operands[1:]:
        result = cls(result, operand)
    return result


# ---------------------------------------------------------------------------
# Canonicalisation
# ---------------------------------------------------------------------------

def _canonical(pattern: Pattern) -> Pattern:
    if isinstance(pattern, Atomic):
        return pattern
    assert isinstance(pattern, BinaryPattern)

    if isinstance(pattern, (Consecutive, Sequential)):
        # Normalise the whole mixed chain left-deep with canonical items.
        items, gaps = flatten_chain(pattern)
        items = [_canonical(item) for item in items]
        work = items[0]
        for gap, item in zip(gaps, items[1:]):
            # a node already in canonical shape is kept, not copied
            if gap.left is not work or gap.right is not item:
                gap = gap.with_children(work, item)
            work = gap
        return work

    operands = [_canonical(p) for p in flatten_assoc(pattern, type(pattern))]
    # ⊗ and ⊕ are commutative (Theorem 3): sort operands; ⊗ is additionally
    # idempotent only set-wise per duplicate elimination in evaluation, but
    # p ⊗ p ≡ p holds (incL(p) ∪ incL(p) = incL(p)), so dedup choice
    # operands.  The operands are canonical already, so their rendered
    # text is a deterministic total order on them.
    operands.sort(key=repr)
    if isinstance(pattern, Choice):
        deduped: list[Pattern] = []
        for operand in operands:
            if not deduped or deduped[-1] != operand:
                deduped.append(operand)
        operands = deduped
    return build_left_deep(type(pattern), operands)


def canonicalize(pattern: Pattern) -> Pattern:
    """A canonical representative of ``pattern``'s equivalence class under
    Theorems 2-4 plus choice idempotence.

    Properties: ``canonicalize(p) ≡ p`` (each step is one of the proven
    laws), and two patterns related by associativity/commutativity/⊙⊳-
    interchange map to the same output.  Distributivity (Theorem 5) is
    *not* applied — it changes pattern size and is a cost-based decision
    left to the optimizer.
    """
    return _canonical(pattern)


def choice_normal_form(pattern: Pattern) -> list[Pattern]:
    """Rewrite ``pattern`` into an equivalent list of choice-free branches.

    Licensed by Theorem 5 (every operator distributes over ⊗ in both
    directions) plus the semantics of ⊗ itself: ``incL(p)`` equals the
    union of the branches' incident sets.  The branch count is the product
    of the choice widths — exponential in the number of ⊗ operators —
    so this is a tool for baselines and analysis, not an evaluation
    strategy.  Duplicate branches (modulo Theorems 2-4) are removed.

    >>> from repro.core.parser import parse
    >>> [str(b) for b in choice_normal_form(parse("(A | B) ; C"))]
    ['A ; C', 'B ; C']
    """
    branches = list(_choice_branches(pattern))
    seen: set[Pattern] = set()
    unique: list[Pattern] = []
    for branch in branches:
        key = canonicalize(branch)
        if key not in seen:
            seen.add(key)
            unique.append(branch)
    return unique


def _choice_branches(pattern: Pattern):
    if isinstance(pattern, Atomic):
        yield pattern
        return
    if isinstance(pattern, Choice):
        yield from _choice_branches(pattern.left)
        yield from _choice_branches(pattern.right)
        return
    assert isinstance(pattern, BinaryPattern)
    for left in _choice_branches(pattern.left):
        for right in _choice_branches(pattern.right):
            yield pattern.with_children(left, right)


# ---------------------------------------------------------------------------
# Random logs for testing Definition 5
# ---------------------------------------------------------------------------

def random_logs(
    alphabet: Iterable[str],
    *,
    cases: int = 20,
    max_instances: int = 3,
    max_events: int = 8,
    seed: int = 0,
) -> list[Log]:
    """A battery of small random logs over ``alphabet`` for equivalence
    testing.  Deterministic for a given seed."""
    rng = random.Random(seed)
    alphabet = list(alphabet)
    logs = []
    for __ in range(cases):
        traces = {}
        for wid in range(1, rng.randint(1, max_instances) + 1):
            length = rng.randint(1, max_events)
            traces[wid] = [rng.choice(alphabet) for _ in range(length)]
        logs.append(
            Log.from_traces(traces, interleave=rng.random() < 0.5)
        )
    return logs
