"""Span-based tracing for engine and pipeline instrumentation.

A :class:`Tracer` records a tree of :class:`Span` objects.  Spans are
opened as context managers::

    tracer = Tracer()
    with tracer.span("evaluate", engine="naive") as root:
        with tracer.span("⊳", key=0) as node:
            ...
            node.add(pairs=12, incidents=4)

Two properties make the tracer suitable for the evaluation engines:

* **key-merged spans** — the reference engine evaluates each pattern
  node once per workflow instance (the join kernel once per evaluation);
  passing a stable ``key`` (the node's position under its parent) makes
  every re-entry *accumulate* into the same span instead of appending a
  sibling, so the finished trace mirrors the incident tree exactly, with
  per-node totals across all instances;
* **a null implementation** — :data:`NULL_TRACER` satisfies the same
  interface with a single shared no-op span, so instrumented code runs
  untraced at negligible cost (verified by
  ``benchmarks/bench_operators.py::test_null_tracer_overhead``).

Timing uses both the wall clock (``perf_counter``) and the process CPU
clock (``process_time``); a span re-entered ``count`` times accumulates
the total over all entries.
"""

from __future__ import annotations

import time
from typing import Any, Iterator

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
]

#: Type of span keys: any hashable value that is stable across re-entries
#: of the same logical node (engines use the child position, 0 or 1).
Key = Any


class Span:
    """One node of a trace tree.

    Attributes
    ----------
    label:
        Display label (operator glyph, leaf text, or stage name).
    tags:
        Set-once string annotations (engine name, operator symbol, ...).
    metrics:
        Numeric payload accumulated with :meth:`add` (pairs examined,
        operand cardinalities, incidents produced, ...).
    count:
        Number of times the span was entered (= merged visits).
    elapsed_s / cpu_s:
        Total wall / CPU seconds over all entries.
    children:
        Child spans in first-open order.
    """

    __slots__ = (
        "label",
        "tags",
        "metrics",
        "count",
        "elapsed_s",
        "cpu_s",
        "children",
        "_by_key",
    )

    def __init__(self, label: str, tags: dict[str, Any] | None = None):
        self.label = label
        self.tags: dict[str, Any] = dict(tags) if tags else {}
        self.metrics: dict[str, float] = {}
        self.count = 0
        self.elapsed_s = 0.0
        self.cpu_s = 0.0
        self.children: list["Span"] = []
        self._by_key: dict[Key, "Span"] = {}

    # -- recording ---------------------------------------------------------

    def add(self, **amounts: float) -> None:
        """Accumulate numeric metrics onto the span."""
        metrics = self.metrics
        for name, amount in amounts.items():
            metrics[name] = metrics.get(name, 0) + amount

    def set_tag(self, name: str, value: Any) -> None:
        self.tags[name] = value

    def child(self, label: str, key: Key = None, tags: dict[str, Any] | None = None) -> "Span":
        """Find-or-create a child span.

        With a non-None ``key``, a child previously opened under the same
        key is reused (its counters keep accumulating); otherwise a new
        child is appended.
        """
        if key is not None:
            merged = self._by_key.get(key)
            if merged is not None:
                return merged
        span = Span(label, tags)
        self.children.append(span)
        if key is not None:
            self._by_key[key] = span
        return span

    # -- reading -----------------------------------------------------------

    @property
    def self_s(self) -> float:
        """Wall seconds spent in the span excluding its children."""
        return max(0.0, self.elapsed_s - sum(c.elapsed_s for c in self.children))

    def walk(self) -> Iterator["Span"]:
        """Yield the span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def total(self, metric: str) -> float:
        """Sum of one metric over the span and all descendants."""
        return sum(span.metrics.get(metric, 0) for span in self.walk())

    def __repr__(self) -> str:
        return (
            f"Span({self.label!r}, count={self.count}, "
            f"elapsed={self.elapsed_s * 1e3:.3f}ms, "
            f"{len(self.children)} child(ren))"
        )


class _SpanHandle:
    """Context manager for one entry into a span."""

    __slots__ = ("_tracer", "_span", "_wall0", "_cpu0")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self) -> Span:
        span = self._span
        span.count += 1
        self._tracer._stack.append(span)
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return span

    def __exit__(self, *exc: object) -> None:
        span = self._span
        span.elapsed_s += time.perf_counter() - self._wall0
        span.cpu_s += time.process_time() - self._cpu0
        stack = self._tracer._stack
        assert stack and stack[-1] is span, "unbalanced span exit"
        stack.pop()
        if not stack:
            self._tracer.last_root = span


class Tracer:
    """Collects spans into one or more trace trees.

    Attributes
    ----------
    roots:
        Completed or in-progress root spans, in first-open order.
    last_root:
        The most recently *closed* root span (the trace of the last
        evaluation).
    """

    enabled = True

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self.last_root: Span | None = None
        self._stack: list[Span] = []
        self._root_by_key: dict[Key, Span] = {}

    def span(self, label: str, *, key: Key = None, **tags: Any) -> _SpanHandle:
        """Open a (possibly key-merged) span under the current span.

        Returns a context manager yielding the :class:`Span`.
        """
        if self._stack:
            span = self._stack[-1].child(label, key=key, tags=tags or None)
        else:
            span = self._root_by_key.get(key) if key is not None else None
            if span is None:
                span = Span(label, tags or None)
                self.roots.append(span)
                if key is not None:
                    self._root_by_key[key] = span
        if tags:
            span.tags.update(tags)
        return _SpanHandle(self, span)

    def __repr__(self) -> str:
        return f"Tracer({len(self.roots)} root(s))"


class _NullSpan:
    """Shared no-op span: its own context manager, accepts all recording
    calls, reads as an empty leaf."""

    __slots__ = ()

    label = ""
    tags: dict[str, Any] = {}
    metrics: dict[str, float] = {}
    count = 0
    elapsed_s = 0.0
    cpu_s = 0.0
    self_s = 0.0
    children: tuple[Span, ...] = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def add(self, **amounts: float) -> None:
        return None

    def set_tag(self, name: str, value: Any) -> None:
        return None

    def __repr__(self) -> str:
        return "NULL_SPAN"


#: The shared no-op span returned by :data:`NULL_TRACER`.
NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: every :meth:`span` call returns :data:`NULL_SPAN`.

    Engines default to this, so instrumentation is inert unless a real
    :class:`Tracer` is injected.
    """

    enabled = False
    roots: tuple[Span, ...] = ()
    last_root = None

    __slots__ = ()

    def span(self, label: str, *, key: Key = None, **tags: Any) -> _NullSpan:
        return NULL_SPAN

    def __repr__(self) -> str:
        return "NULL_TRACER"


#: The shared no-op tracer instance.
NULL_TRACER = NullTracer()
