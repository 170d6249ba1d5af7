"""Attribute-guarded atomic patterns.

The paper's introduction motivates queries like *"how many students every
year get referrals with balance > $5,000?"* — but its formal language only
constrains activity names.  This module supplies the missing piece: a
:class:`Guarded` atom that additionally requires a predicate over the log
record's ``αin``/``αout`` attribute maps.

Because :class:`Guarded` subclasses :class:`~repro.core.pattern.Atomic`
and engines dispatch leaf matching through ``Atomic.matches``, guarded
atoms compose with every operator, engine and optimizer rewrite without
further changes.  (The SQL/ETL baseline *cannot* evaluate them — its
warehouse projection has no attribute maps — which is precisely the
paper's criticism of the ETL route.)

API
---
Fluent condition builders::

    from repro.extensions import Guarded, attr

    p = Guarded("GetRefer", False, attr("out.balance") > 5000) >> "GetReimburse"

Textual guards (parsed by :func:`parse_guard`, and embedded in query text
as ``GetRefer[out.balance > 5000]``)::

    GetRefer[out.balance > 5000 and out.hospital == "Public Hospital"]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import PatternSyntaxError
from repro.core.model import LogRecord
from repro.core.pattern import Atomic

__all__ = [
    "Condition",
    "Compare",
    "Exists",
    "AllOf",
    "AnyOf",
    "Not",
    "AttrRef",
    "attr",
    "Guarded",
    "parse_guard",
]

#: Attribute scopes a condition may inspect: the input map, the output
#: map, or either.
_SCOPES = ("in", "out", "any")

_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "~=": lambda a, b: isinstance(a, str) and str(b) in a,  # contains
}


class Condition:
    """Base class of record predicates; combinable with ``&``, ``|``, ``~``."""

    def evaluate(self, record: LogRecord) -> bool:
        """Whether ``record`` satisfies the condition."""
        raise NotImplementedError

    def to_guard_text(self) -> str:
        """Render in the guard grammar of :func:`parse_guard` (so guarded
        patterns round-trip through query text)."""
        raise NotImplementedError

    def __and__(self, other: "Condition") -> "AllOf":
        return AllOf((self, other))

    def __or__(self, other: "Condition") -> "AnyOf":
        return AnyOf((self, other))

    def __invert__(self) -> "Not":
        return Not(self)


def _literal(value: Any) -> str:
    """Render a guard literal (inverse of the guard tokenizer)."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value).replace('"', "")
    return f'"{text}"'


def _lookup(record: LogRecord, scope: str, name: str) -> tuple[bool, Any]:
    """Resolve an attribute reference; returns (found, value).

    ``any`` prefers the output map (the post-activity value) and falls
    back to the input map.
    """
    if scope in ("out", "any") and name in record.attrs_out:
        return True, record.attrs_out[name]
    if scope in ("in", "any") and name in record.attrs_in:
        return True, record.attrs_in[name]
    return False, None


@dataclass(frozen=True)
class Compare(Condition):
    """``scope.name <op> value``; a missing attribute never satisfies a
    comparison, and type-incompatible comparisons are False, not errors
    (logs are heterogeneous)."""

    scope: str
    name: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.scope not in _SCOPES:
            raise ValueError(f"scope must be one of {_SCOPES}, got {self.scope!r}")
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, record: LogRecord) -> bool:
        found, actual = _lookup(record, self.scope, self.name)
        if not found:
            return False
        try:
            return bool(_OPS[self.op](actual, self.value))
        except TypeError:
            return False

    def to_guard_text(self) -> str:
        return f"{self.scope}.{self.name} {self.op} {_literal(self.value)}"

    def __repr__(self) -> str:
        return f"{self.scope}.{self.name} {self.op} {self.value!r}"


@dataclass(frozen=True)
class Exists(Condition):
    """The attribute is present (read and/or written) on the record."""

    scope: str
    name: str

    def __post_init__(self) -> None:
        if self.scope not in _SCOPES:
            raise ValueError(f"scope must be one of {_SCOPES}, got {self.scope!r}")

    def evaluate(self, record: LogRecord) -> bool:
        found, __ = _lookup(record, self.scope, self.name)
        return found

    def to_guard_text(self) -> str:
        return f"{self.scope}.{self.name}"

    def __repr__(self) -> str:
        return f"{self.scope}.{self.name} exists"


@dataclass(frozen=True)
class AllOf(Condition):
    """Conjunction."""

    conditions: tuple[Condition, ...]

    def evaluate(self, record: LogRecord) -> bool:
        return all(c.evaluate(record) for c in self.conditions)

    def to_guard_text(self) -> str:
        parts = [
            f"({c.to_guard_text()})" if isinstance(c, AnyOf) else c.to_guard_text()
            for c in self.conditions
        ]
        return " and ".join(parts)

    def __repr__(self) -> str:
        return "(" + " and ".join(map(repr, self.conditions)) + ")"


@dataclass(frozen=True)
class AnyOf(Condition):
    """Disjunction."""

    conditions: tuple[Condition, ...]

    def evaluate(self, record: LogRecord) -> bool:
        return any(c.evaluate(record) for c in self.conditions)

    def to_guard_text(self) -> str:
        return " or ".join(c.to_guard_text() for c in self.conditions)

    def __repr__(self) -> str:
        return "(" + " or ".join(map(repr, self.conditions)) + ")"


@dataclass(frozen=True)
class Not(Condition):
    """Negation."""

    condition: Condition

    def evaluate(self, record: LogRecord) -> bool:
        return not self.condition.evaluate(record)

    def to_guard_text(self) -> str:
        return f"not ({self.condition.to_guard_text()})"

    def __repr__(self) -> str:
        return f"not {self.condition!r}"


@dataclass(frozen=True)
class AttrRef:
    """Fluent builder: ``attr("out.balance") > 5000`` → a :class:`Compare`.

    The reference string is ``scope.name`` with scope in ``in``/``out``/
    ``any``; a bare name means ``any``.
    """

    scope: str
    name: str

    def __gt__(self, value) -> Compare:
        return Compare(self.scope, self.name, ">", value)

    def __ge__(self, value) -> Compare:
        return Compare(self.scope, self.name, ">=", value)

    def __lt__(self, value) -> Compare:
        return Compare(self.scope, self.name, "<", value)

    def __le__(self, value) -> Compare:
        return Compare(self.scope, self.name, "<=", value)

    def __eq__(self, value) -> Compare:  # type: ignore[override]
        return Compare(self.scope, self.name, "==", value)

    def __ne__(self, value) -> Compare:  # type: ignore[override]
        return Compare(self.scope, self.name, "!=", value)

    def __hash__(self) -> int:  # __eq__ is hijacked for the DSL
        return hash((self.scope, self.name))


def attr(reference: str) -> AttrRef:
    """Build an attribute reference from ``"scope.name"`` or ``"name"``."""
    if "." in reference:
        scope, __, name = reference.partition(".")
    else:
        scope, name = "any", reference
    if scope not in _SCOPES:
        raise ValueError(f"scope must be one of {_SCOPES}, got {scope!r}")
    if not name:
        raise ValueError("attribute name must be nonempty")
    return AttrRef(scope, name)


@dataclass(frozen=True, slots=True, repr=False)
class Guarded(Atomic):
    """An atomic pattern with an attribute guard.

    Matches a record iff the base atomic pattern matches (activity name,
    polarity) *and* the condition holds on the record's attribute maps.
    """

    condition: Condition = field(default_factory=lambda: AllOf(()))

    def matches(self, record: LogRecord) -> bool:
        # explicit class reference: dataclass(slots=True) re-creates the
        # class, which breaks zero-argument super() in its methods
        return Atomic.matches(self, record) and self.condition.evaluate(record)

    def to_query_text(self) -> str:
        return (
            Atomic.to_query_text(self) + f"[{self.condition.to_guard_text()}]"
        )

    def __repr__(self) -> str:
        return (
            f"Guarded({'¬' if self.negated else ''}{self.name}"
            f"[{self.condition!r}])"
        )


# ---------------------------------------------------------------------------
# Guard-expression parser (used by the query syntax `Name[...]`)
# ---------------------------------------------------------------------------

def parse_guard(text: str) -> Condition:
    """Parse a guard expression.

    Grammar (keywords case-sensitive, ``and`` binds tighter than ``or``)::

        guard   := conj ("or" conj)*
        conj    := unit ("and" unit)*
        unit    := "not" unit | "(" guard ")" | comparison | ref
        comparison := ref OP literal      OP ∈ {==, !=, <, <=, >, >=, ~=}
        ref     := [scope "."] name       scope ∈ {in, out, any}
        literal := number | "string" | true | false | null | bareword

    A bare ``ref`` asserts attribute existence.
    """
    parser = _GuardParser(text)
    condition = parser.parse_or()
    parser.expect_end()
    return condition


class _GuardParser:
    """Recursive-descent parser over a simple token stream."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = self._tokenize(text)
        self.position = 0

    @staticmethod
    def _tokenize(text: str) -> list[tuple[str, Any, int]]:
        tokens: list[tuple[str, Any, int]] = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "()":
                tokens.append(("paren", ch, i))
                i += 1
                continue
            two = text[i : i + 2]
            if two in ("==", "!=", "<=", ">=", "~="):
                tokens.append(("op", two, i))
                i += 2
                continue
            if ch in "<>":
                tokens.append(("op", ch, i))
                i += 1
                continue
            if ch == '"':
                end = text.find('"', i + 1)
                if end < 0:
                    raise PatternSyntaxError(
                        "unterminated string in guard", text=text, position=i
                    )
                tokens.append(("literal", text[i + 1 : end], i))
                i = end + 1
                continue
            if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
                j = i + 1
                while j < n and (text[j].isdigit() or text[j] in "._eE+-"):
                    j += 1
                raw = text[i:j].rstrip(".")
                try:
                    value: Any = int(raw)
                except ValueError:
                    try:
                        value = float(raw)
                    except ValueError:
                        raise PatternSyntaxError(
                            f"malformed number {raw!r} in guard",
                            text=text,
                            position=i,
                        ) from None
                tokens.append(("literal", value, i))
                i = i + len(raw)
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] in "_."):
                    j += 1
                word = text[i:j]
                if word in ("and", "or", "not"):
                    tokens.append(("keyword", word, i))
                elif word == "true":
                    tokens.append(("literal", True, i))
                elif word == "false":
                    tokens.append(("literal", False, i))
                elif word == "null":
                    tokens.append(("literal", None, i))
                else:
                    tokens.append(("word", word, i))
                i = j
                continue
            raise PatternSyntaxError(
                f"unexpected character {ch!r} in guard", text=text, position=i
            )
        return tokens

    # -- token access -----------------------------------------------------

    def peek(self) -> tuple[str, Any, int] | None:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def next(self) -> tuple[str, Any, int]:
        token = self.peek()
        if token is None:
            raise PatternSyntaxError(
                "unexpected end of guard expression", text=self.text
            )
        self.position += 1
        return token

    def expect_end(self) -> None:
        token = self.peek()
        if token is not None:
            raise PatternSyntaxError(
                f"unexpected trailing {token[1]!r} in guard",
                text=self.text,
                position=token[2],
            )

    # -- grammar ------------------------------------------------------------

    def parse_or(self) -> Condition:
        parts = [self.parse_and()]
        while (token := self.peek()) and token[:2] == ("keyword", "or"):
            self.next()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else AnyOf(tuple(parts))

    def parse_and(self) -> Condition:
        parts = [self.parse_unit()]
        while (token := self.peek()) and token[:2] == ("keyword", "and"):
            self.next()
            parts.append(self.parse_unit())
        return parts[0] if len(parts) == 1 else AllOf(tuple(parts))

    def parse_unit(self) -> Condition:
        token = self.next()
        kind, value, position = token
        if (kind, value) == ("keyword", "not"):
            return Not(self.parse_unit())
        if (kind, value) == ("paren", "("):
            inner = self.parse_or()
            closing = self.next()
            if closing[:2] != ("paren", ")"):
                raise PatternSyntaxError(
                    "expected ')' in guard", text=self.text, position=closing[2]
                )
            return inner
        if kind == "word":
            reference = attr(value)
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op":
                op = self.next()[1]
                literal = self.next()
                if literal[0] not in ("literal", "word"):
                    raise PatternSyntaxError(
                        "expected a literal after comparison operator",
                        text=self.text,
                        position=literal[2],
                    )
                return Compare(reference.scope, reference.name, op, literal[1])
            return Exists(reference.scope, reference.name)
        raise PatternSyntaxError(
            f"unexpected {value!r} in guard", text=self.text, position=position
        )
