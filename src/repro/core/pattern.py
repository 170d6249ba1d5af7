"""Incident-pattern algebra (Definition 3 of the paper).

An *incident pattern* is one of

* an **atomic** pattern ``t`` (positive) or ``¬t`` (negative) over an
  activity name ``t``;
* a **consecutive** pattern ``p1 ⊙ p2`` — p1 and p2 executed back to back;
* a **sequential** pattern ``p1 ⊳ p2`` — p1 executed strictly before p2;
* a **choice** pattern ``p1 ⊗ p2`` — one of p1 or p2 executed;
* a **parallel** pattern ``p1 ⊕ p2`` — both executed, sharing no records.

Patterns are immutable, hashable AST nodes.  A small Python DSL is provided
via operator overloading::

    from repro import Atomic
    p = Atomic("SeeDoctor") >> (Atomic("UpdateRefer") >> "GetReimburse")
    q = Atomic("A") * "B"            # consecutive
    r = Atomic("A") | "B"            # choice
    s = Atomic("A") & "B"            # parallel
    n = ~Atomic("A")                 # negated atom

The textual surface syntax lives in :mod:`repro.core.parser`; this module
also provides :func:`to_text`, which renders a pattern back into that
syntax (``parse(to_text(p)) == p``).
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Union

__all__ = [
    "Pattern",
    "Atomic",
    "Consecutive",
    "Sequential",
    "Choice",
    "Parallel",
    "BinaryPattern",
    "parallel",
    "to_text",
]


class Pattern:
    """Base class of all incident-pattern AST nodes.

    Provides the operator DSL, structural introspection (size, activity
    names), and traversal helpers shared by all node types.
    """

    __slots__ = ()

    # -- DSL ------------------------------------------------------------

    def __mul__(self, other: "Pattern") -> "Consecutive":
        """``a * b`` builds the consecutive pattern ``a ⊙ b``."""
        return Consecutive(self, _as_pattern(other))

    def __rshift__(self, other: "Pattern") -> "Sequential":
        """``a >> b`` builds the sequential pattern ``a ⊳ b``."""
        return Sequential(self, _as_pattern(other))

    def __or__(self, other: "Pattern") -> "Choice":
        """``a | b`` builds the choice pattern ``a ⊗ b``."""
        return Choice(self, _as_pattern(other))

    def __and__(self, other: "Pattern") -> "Parallel":
        """``a & b`` builds the parallel pattern ``a ⊕ b``."""
        return Parallel(self, _as_pattern(other))

    # -- structural introspection ----------------------------------------

    def walk(self) -> Iterator["Pattern"]:
        """Yield this node and all descendants, pre-order."""
        stack: list[Pattern] = [self]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, BinaryPattern):
                stack.append(node.right)
                stack.append(node.left)

    def atoms(self) -> Iterator["Atomic"]:
        """Yield every atomic leaf, left to right."""
        for node in _in_order(self):
            if isinstance(node, Atomic):
                yield node

    @property
    def size(self) -> int:
        """Number of atomic leaves (``k_i`` in Lemma 1's cost analysis)."""
        return sum(1 for _ in self.atoms())

    def activity_names(self) -> frozenset[str]:
        """Set of activity names mentioned (ignoring negation)."""
        return frozenset(atom.name for atom in self.atoms())

    def __str__(self) -> str:
        return to_text(self)


def _as_pattern(value: Union["Pattern", str]) -> "Pattern":
    """Coerce strings into positive atoms so the DSL accepts bare names."""
    if isinstance(value, Pattern):
        return value
    if isinstance(value, str):
        return Atomic(value)
    raise TypeError(f"cannot use {value!r} as an incident pattern")


def _in_order(root: Pattern) -> Iterator[Pattern]:
    """In-order traversal (left subtree, node, right subtree)."""
    if isinstance(root, Atomic):
        yield root
        return
    assert isinstance(root, BinaryPattern)
    yield from _in_order(root.left)
    yield root
    yield from _in_order(root.right)


@dataclass(frozen=True, slots=True)
class Atomic(Pattern):
    """An atomic activity pattern ``t`` or ``¬t`` (Definition 3).

    A positive atom matches any single log record whose activity name is
    ``name``; a negative atom matches any single record whose activity name
    is *not* ``name`` (sentinel ``START``/``END`` records included, per
    Definition 4).
    """

    name: str
    negated: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("activity name must be nonempty")

    def __invert__(self) -> "Atomic":
        """``~a`` flips the polarity of an atomic pattern."""
        return Atomic(self.name, not self.negated)

    def matches(self, record) -> bool:
        """Whether one log record satisfies this leaf (Definition 4:
        activity name equal to ``name``, or different when negated).

        Engines dispatch leaf matching through this method so that leaf
        subclasses (e.g. the attribute-guarded atoms of
        :mod:`repro.extensions.conditions`) plug in transparently.
        """
        return (record.activity == self.name) != self.negated

    def to_query_text(self) -> str:
        """Render this leaf in the textual query syntax (:func:`to_text`
        delegates here so leaf subclasses can render their extras)."""
        name = self.name
        if not name.isidentifier():
            name = f'"{name}"'
        return f"!{name}" if self.negated else name

    def __repr__(self) -> str:
        return f"Atomic({'¬' if self.negated else ''}{self.name})"


@dataclass(frozen=True, slots=True)
class BinaryPattern(Pattern):
    """Common base of the four binary composite patterns."""

    left: Pattern
    right: Pattern

    #: Operator glyph used by the paper; overridden per subclass.
    symbol = "?"
    #: ASCII token used by the textual query syntax.
    token = "?"

    def __post_init__(self) -> None:
        if not isinstance(self.left, Pattern) or not isinstance(self.right, Pattern):
            raise TypeError("operands of a composite pattern must be Patterns")

    def with_children(self, left: Pattern, right: Pattern) -> "BinaryPattern":
        """A copy of this node with replaced operands.

        Uses :func:`dataclasses.replace`, so subclass fields (e.g. the
        ``bound`` of a windowed sequential operator) are preserved."""
        return dataclasses.replace(self, left=left, right=right)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.left!r}, {self.right!r})"


@dataclass(frozen=True, slots=True, repr=False)
class Consecutive(BinaryPattern):
    """``p1 ⊙ p2`` — the last record of a p1-incident is immediately
    followed (by instance-specific sequence number) by the first record of a
    p2-incident in the same instance."""

    symbol = "⊙"
    token = ";"

    def gap_ok(self, last1: int, first2: int) -> bool:
        """The ⊙ gap constraint: exact adjacency (Definition 4)."""
        return last1 + 1 == first2


@dataclass(frozen=True, slots=True, repr=False)
class Sequential(BinaryPattern):
    """``p1 ⊳ p2`` — a p1-incident completes strictly before a p2-incident
    begins, in the same instance (gaps allowed)."""

    symbol = "⊳"
    token = "->"

    def gap_ok(self, last1: int, first2: int) -> bool:
        """The ⊳ gap constraint: strict precedence (Definition 4).

        Subclasses refine this (e.g. windowed sequential operators)."""
        return last1 < first2


@dataclass(frozen=True, slots=True, repr=False)
class Choice(BinaryPattern):
    """``p1 ⊗ p2`` — an incident of either operand."""

    symbol = "⊗"
    token = "|"


@dataclass(frozen=True, slots=True, repr=False)
class Parallel(BinaryPattern):
    """``p1 ⊕ p2`` — disjoint incidents of both operands in the same
    instance, interleaved arbitrarily (a shuffle)."""

    symbol = "⊕"
    token = "&"


# ---------------------------------------------------------------------------
# Convenience constructor
# ---------------------------------------------------------------------------


def parallel(*patterns: Pattern | str) -> Pattern:
    """Left-fold patterns with the parallel operator ``⊕``."""
    items = [_as_pattern(p) for p in patterns]
    if not items:
        raise ValueError("need at least one pattern")
    result = items[0]
    for item in items[1:]:
        result = Parallel(result, item)
    return result


# ---------------------------------------------------------------------------
# Rendering back to the textual syntax
# ---------------------------------------------------------------------------

#: Binding strength per operator: higher binds tighter.  ``⊙`` and ``⊳``
#: share a level (Theorem 4); ``⊕`` binds tighter than ``⊗``.
_PRECEDENCE = {Consecutive: 3, Sequential: 3, Parallel: 2, Choice: 1}


def precedence(pattern: Pattern) -> int:
    """Binding strength of the top-level operator (atoms bind tightest).

    Subclasses of an operator (windowed sequential, guarded atoms, ...)
    inherit its precedence via the MRO walk."""
    for cls in type(pattern).__mro__:
        if cls in _PRECEDENCE:
            return _PRECEDENCE[cls]
    return 4


def to_text(pattern: Pattern) -> str:
    """Render ``pattern`` in the textual query syntax.

    The output parses back to an equal AST: parentheses are inserted
    exactly where the default precedence and left-associativity would
    otherwise regroup the expression.
    """
    if isinstance(pattern, Atomic):
        return pattern.to_query_text()
    assert isinstance(pattern, BinaryPattern)
    here = precedence(pattern)
    left = to_text(pattern.left)
    right = to_text(pattern.right)
    # Left child needs parens when it binds looser than this operator.
    if precedence(pattern.left) < here:
        left = f"({left})"
    # Right child needs parens when it binds looser, or equally tight (the
    # grammar is left-associative, so an equal-precedence right child was
    # explicitly grouped).
    if precedence(pattern.right) <= here:
        right = f"({right})"
    return f"{left} {pattern.token} {right}"


# ---------------------------------------------------------------------------
# Random pattern generation (used by tests and benchmarks)
# ---------------------------------------------------------------------------

def random_pattern(rng, alphabet, max_depth: int = 4, allow_negation: bool = True) -> Pattern:
    """Draw a random pattern over ``alphabet`` using RNG ``rng``.

    Used by the property-based tests and the benchmark workload generators;
    depth decreases geometrically so expressions stay small.
    """
    alphabet = list(alphabet)
    if max_depth <= 1 or rng.random() < 0.4:
        name = rng.choice(alphabet)
        negated = allow_negation and rng.random() < 0.15
        return Atomic(name, negated)
    op = rng.choice([Consecutive, Sequential, Choice, Parallel])
    left = random_pattern(rng, alphabet, max_depth - 1, allow_negation)
    right = random_pattern(rng, alphabet, max_depth - 1, allow_negation)
    return op(left, right)


def enumerate_patterns(alphabet, max_operators: int) -> Iterator[Pattern]:
    """Yield every pattern over ``alphabet`` with at most ``max_operators``
    binary operators (positive atoms only).  Exponential — intended for
    exhaustive small-scope testing."""
    atoms: list[Pattern] = [Atomic(a) for a in alphabet]
    by_ops: list[list[Pattern]] = [list(atoms)]
    yield from by_ops[0]
    for k in range(1, max_operators + 1):
        level: list[Pattern] = []
        for left_ops in range(k):
            right_ops = k - 1 - left_ops
            for left, right in itertools.product(by_ops[left_ops], by_ops[right_ops]):
                for cls in (Consecutive, Sequential, Choice, Parallel):
                    level.append(cls(left, right))
        by_ops.append(level)
        yield from level
