"""Textual query syntax for incident patterns.

The paper builds incident trees from infix pattern expressions using
Dijkstra's shunting-yard algorithm (Algorithm 3).  This module implements
that pipeline: a tokenizer, the shunting-yard infix→AST conversion, and
precise error reporting with source positions.

Surface syntax
--------------

====================  =======================  =====================
construct             ASCII                    unicode alias
====================  =======================  =====================
positive atom         ``CheckIn``              —
quoted atom           ``"Check In"``           —
negated atom          ``!CheckIn``             ``¬CheckIn``
consecutive (⊙)       ``A ; B``                ``A ⊙ B``
sequential  (⊳)       ``A -> B``               ``A ⊳ B`` or ``A » B``
parallel    (⊕)       ``A & B``                ``A ⊕ B``
choice      (⊗)       ``A | B``                ``A ⊗ B``
grouping              ``( ... )``              —
====================  =======================  =====================

Precedence, tightest first: ``;`` = ``->`` (one level, per Theorem 4 both
chains associate freely), then ``&``, then ``|``.  All operators are
left-associative — harmless by Theorem 2 (all four operators are
associative), but it fixes a canonical parse.

Examples
--------
>>> parse("UpdateRefer -> GetReimburse")
Sequential(Atomic(UpdateRefer), Atomic(GetReimburse))
>>> parse("A ; B | C & D").token
'|'
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.core.errors import PatternSyntaxError
from repro.core.pattern import (
    Atomic,
    BinaryPattern,
    Choice,
    Consecutive,
    Parallel,
    Pattern,
    Sequential,
)

__all__ = [
    "parse",
    "parse_with_spans",
    "tokenize",
    "Token",
    "SourceSpan",
    "ParseResult",
]


_OPERATORS: dict[str, type[BinaryPattern]] = {
    ";": Consecutive,
    "⊙": Consecutive,
    "->": Sequential,
    "⊳": Sequential,
    "»": Sequential,
    "|": Choice,
    "⊗": Choice,
    "&": Parallel,
    "⊕": Parallel,
}

#: Precedence per canonical token; higher binds tighter.
_PRECEDENCE: dict[type[BinaryPattern], int] = {
    Consecutive: 3,
    Sequential: 3,
    Parallel: 2,
    Choice: 1,
}

_NEGATION_CHARS = ("!", "¬")


@dataclass(frozen=True, slots=True)
class Token:
    """A lexical token: ``kind`` is one of ``atom``, ``op``, ``lparen``,
    ``rparen``; ``value`` is the atom name or canonical operator token;
    ``position`` is the 0-based source offset; ``negated`` flags ``!atom``;
    ``guard`` carries the text of an attribute guard (``Name[...]``);
    ``bound`` carries the window of a bounded sequential (``->[k]``).
    """

    kind: str
    value: str
    position: int
    negated: bool = False
    guard: str | None = None
    bound: int | None = None
    #: 0-based exclusive end offset of the token's source text; ``-1`` for
    #: tokens constructed without position information.
    end: int = -1


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """A half-open ``[start, end)`` character range in the query text.

    Spans are attached to AST nodes during parsing (see
    :class:`ParseResult`) so downstream tooling — notably
    :mod:`repro.core.lint` — can point diagnostics at the offending
    subexpression.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span [{self.start}, {self.end})")

    def caret_line(self) -> str:
        """An underline (``^^^``) aligned with the span, for CLI output."""
        return " " * self.start + "^" * max(1, self.end - self.start)

    def __str__(self) -> str:
        return f"{self.start}-{self.end}"


class ParseResult:
    """A parsed pattern plus the source spans of its AST nodes.

    Patterns are immutable value objects — structurally equal subtrees
    compare and hash equal — so spans are kept in a side table keyed by
    node *identity* rather than on the nodes themselves.  The result
    object retains the root pattern (keeping every node alive), which
    makes identity keys stable for its lifetime.
    """

    __slots__ = ("pattern", "text", "_spans")

    def __init__(self, pattern: Pattern, text: str, spans: dict[int, SourceSpan]):
        self.pattern = pattern
        self.text = text
        self._spans = spans

    def span(self, node: Pattern) -> SourceSpan | None:
        """The source span of ``node``, or None when the node is not part
        of this parse (e.g. built by a rewrite)."""
        return self._spans.get(id(node))

    def __repr__(self) -> str:
        return f"ParseResult({self.text!r})"


def tokenize(text: str) -> Iterator[Token]:
    """Lex ``text`` into :class:`Token` objects.

    Raises
    ------
    PatternSyntaxError
        On an unexpected character or an unterminated quoted name.
    """
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            yield Token("lparen", "(", i, end=i + 1)
            i += 1
            continue
        if ch == ")":
            yield Token("rparen", ")", i, end=i + 1)
            i += 1
            continue
        if text.startswith("->", i):
            i += 2
            if i < n and text[i] == "[":
                end = text.find("]", i + 1)
                if end < 0:
                    raise PatternSyntaxError(
                        "unterminated window bound after '->['",
                        text=text,
                        position=i,
                    )
                raw = text[i + 1 : end].strip()
                if not raw.isdigit() or int(raw) < 1:
                    raise PatternSyntaxError(
                        f"window bound must be a positive integer, got {raw!r}",
                        text=text,
                        position=i + 1,
                    )
                yield Token("op", "->", i - 2, bound=int(raw), end=end + 1)
                i = end + 1
            else:
                yield Token("op", "->", i - 2, end=i)
            continue
        if ch in _OPERATORS and ch != "-":
            # single-character operators and unicode aliases
            canonical = _OPERATORS[ch].token
            yield Token("op", canonical, i, end=i + 1)
            i += 1
            continue
        if ch in _NEGATION_CHARS:
            start = i
            i += 1
            while i < n and text[i].isspace():
                i += 1
            name, i = _read_name(text, i, start)
            guard, i = _read_guard(text, i)
            yield Token("atom", name, start, negated=True, guard=guard, end=i)
            continue
        if ch == '"' or ch == "_" or ch.isalnum():
            start = i
            name, i = _read_name(text, i, start)
            guard, i = _read_guard(text, i)
            yield Token("atom", name, start, guard=guard, end=i)
            continue
        raise PatternSyntaxError(
            f"unexpected character {ch!r}", text=text, position=i
        )


def _read_name(text: str, i: int, error_pos: int) -> tuple[str, int]:
    """Read an activity name starting at ``i``; returns (name, next index)."""
    n = len(text)
    if i >= n:
        raise PatternSyntaxError(
            "expected an activity name", text=text, position=error_pos
        )
    if text[i] == '"':
        end = text.find('"', i + 1)
        if end < 0:
            raise PatternSyntaxError(
                "unterminated quoted activity name", text=text, position=i
            )
        name = text[i + 1 : end]
        if not name:
            raise PatternSyntaxError(
                "empty quoted activity name", text=text, position=i
            )
        return name, end + 1
    if not (text[i].isalnum() or text[i] == "_"):
        raise PatternSyntaxError(
            f"expected an activity name, found {text[i]!r}",
            text=text,
            position=i,
        )
    j = i
    while j < n and (text[j].isalnum() or text[j] == "_"):
        j += 1
    return text[i:j], j


def _read_guard(text: str, i: int) -> tuple[str | None, int]:
    """Read an optional ``[guard]`` suffix after an atom name."""
    n = len(text)
    j = i
    while j < n and text[j].isspace():
        j += 1
    if j >= n or text[j] != "[":
        return None, i
    depth = 0
    k = j
    while k < n:
        if text[k] == "[":
            depth += 1
        elif text[k] == "]":
            depth -= 1
            if depth == 0:
                return text[j + 1 : k], k + 1
        k += 1
    raise PatternSyntaxError("unterminated attribute guard", text=text, position=j)


def _make_atom(token: Token) -> Pattern:
    """Build the leaf for an atom token (guarded when ``[...]`` present)."""
    if token.guard is None:
        return Atomic(token.value, negated=token.negated)
    # imported lazily: extensions build on core, not the other way around
    from repro.extensions.conditions import Guarded, parse_guard

    return Guarded(token.value, token.negated, parse_guard(token.guard))


def _make_operator(token: Token):
    """The node factory for an operator token (windowed when bounded)."""
    cls = _OPERATORS[token.value]
    if token.bound is None:
        return cls
    from repro.extensions.windows import Within

    bound = token.bound

    def build(left: Pattern, right: Pattern) -> Pattern:
        return Within(left, right, bound)

    return build


def parse(text: str) -> Pattern:
    """Parse an infix pattern expression into a :class:`Pattern` AST.

    Implements the shunting-yard conversion of Algorithm 3: operators are
    held on a stack and popped to build AST nodes whenever a same-or-higher
    precedence operator (left associativity) or a closing parenthesis
    arrives.

    Raises
    ------
    PatternSyntaxError
        On any lexical or grammatical error, with source position.
    """
    return parse_with_spans(text).pattern


def parse_with_spans(text: str) -> ParseResult:
    """Like :func:`parse`, but also records each AST node's source span.

    Every node of the returned pattern — atoms and operators alike — maps
    to the ``[start, end)`` range of query text it was built from.  An
    operator node spans its whole subexpression, with the grouping
    parentheses of its operands but without its own: in ``(A -> B) | C``
    the choice spans the whole text and the ``->`` node ``A -> B``.
    """
    tokens = list(tokenize(text))
    if not tokens:
        raise PatternSyntaxError("empty pattern expression", text=text)

    spans: dict[int, SourceSpan] = {}
    # a parenthesised node's span with its parentheses, as an operand sees it
    grouped: dict[int, SourceSpan] = {}
    output: list[Pattern] = []
    # operator stack holds ("op", factory, precedence, position) or
    # ("lparen", None, 0, position)
    stack: list[tuple[str, object, int, int]] = []
    # expect_operand tracks the grammar state: True when an atom or '(' is
    # legal next, False when an operator or ')' is legal next.
    expect_operand = True

    def reduce_once(position: int) -> None:
        kind, factory, __, ___ = stack.pop()
        assert kind == "op" and factory is not None
        if len(output) < 2:
            raise PatternSyntaxError(
                "operator is missing an operand", text=text, position=position
            )
        right = output.pop()
        left = output.pop()
        node = factory(left, right)  # type: ignore[operator]
        left_span = grouped.get(id(left), spans.get(id(left)))
        right_span = grouped.get(id(right), spans.get(id(right)))
        if left_span is not None and right_span is not None:
            spans[id(node)] = SourceSpan(left_span.start, right_span.end)
        output.append(node)

    for token in tokens:
        if token.kind == "atom":
            if not expect_operand:
                raise PatternSyntaxError(
                    f"expected an operator before {token.value!r}",
                    text=text,
                    position=token.position,
                )
            atom = _make_atom(token)
            spans[id(atom)] = SourceSpan(token.position, token.end)
            output.append(atom)
            expect_operand = False
        elif token.kind == "lparen":
            if not expect_operand:
                raise PatternSyntaxError(
                    "expected an operator before '('",
                    text=text,
                    position=token.position,
                )
            stack.append(("lparen", None, 0, token.position))
            expect_operand = True
        elif token.kind == "rparen":
            if expect_operand:
                raise PatternSyntaxError(
                    "expected a pattern before ')'",
                    text=text,
                    position=token.position,
                )
            while stack and stack[-1][0] == "op":
                reduce_once(token.position)
            if not stack:
                raise PatternSyntaxError(
                    "unmatched ')'", text=text, position=token.position
                )
            opened = stack.pop()[3]  # the lparen
            grouped[id(output[-1])] = SourceSpan(opened, token.end)
            expect_operand = False
        else:  # operator
            if expect_operand:
                raise PatternSyntaxError(
                    f"expected a pattern before {token.value!r}",
                    text=text,
                    position=token.position,
                )
            factory = _make_operator(token)
            my_prec = _PRECEDENCE[_OPERATORS[token.value]]
            while stack and stack[-1][0] == "op" and stack[-1][2] >= my_prec:
                reduce_once(token.position)
            stack.append(("op", factory, my_prec, token.position))
            expect_operand = True

    if expect_operand:
        last = tokens[-1]
        raise PatternSyntaxError(
            "expression ends with a dangling operator",
            text=text,
            position=last.position,
        )
    while stack:
        kind, __, ___, position = stack[-1]
        if kind == "lparen":
            raise PatternSyntaxError("unmatched '('", text=text, position=position)
        reduce_once(position)

    if len(output) != 1:  # pragma: no cover - guarded by grammar state machine
        raise PatternSyntaxError("malformed expression", text=text)
    return ParseResult(output[0], text, spans)
