"""The production join kernel: set-at-a-time evaluation over the columnar log.

The paper's Algorithm 1 inspects every pair of sub-incidents for every
operator (:class:`~repro.core.eval.naive.NaiveEngine` keeps that
procedure verbatim as the reference).  This kernel keeps each
intermediate incident set sorted by ``first`` (per workflow instance) and
exploits that order:

* **sequential** ``p1 ⊳ p2`` — for each left incident, the qualifying right
  incidents form a contiguous slice of the ``first``-sorted right list
  (a suffix; a window bound clips its end); both boundaries are found by
  binary search, so no failing pair is ever examined;
* **consecutive** ``p1 ⊙ p2`` — right incidents are hashed by ``first`` and
  each left incident probes ``last+1`` (a hash join on the adjacency key);
* **parallel** ``p1 ⊕ p2`` — pairs whose is-lsn spans do not overlap are
  disjoint by construction, so the record-level disjointness test runs only
  for span-overlapping pairs;
* **choice** — a hash-set union.

Output sizes are unchanged — the optimizations cut the *search*, not the
result (which Lemma 1 lower-bounds at ``n1·n2`` in the worst case).

The joins run over :class:`~repro.columnar.ColumnarLog` column slices
instead of object rows:

* each workflow instance is one contiguous row window ``[lo, hi)`` of the
  columnar layout — no per-instance dict probing;
* activity leaves are answered from the per-activity row index, and
  negated leaves scan the interned ``act_id`` integer column — record
  objects are never touched for plain leaves.  Attribute-guarded leaves
  (subclasses of :class:`~repro.core.pattern.Atomic`) need the attribute
  maps and match the window's record objects; everything around them
  stays columnar;
* intermediate incidents are plain ``(first, last, positions)`` tuples
  (``positions`` a frozenset of is-lsn values), so the quadratic join
  loops move integers and frozensets instead of allocating
  :class:`~repro.core.incident.Incident` objects;
* the root hands its tuples to :meth:`IncidentSet.from_spans
  <repro.core.incident.IncidentSet.from_spans>` as they are;
  :class:`~repro.core.incident.Incident` objects exist only once a
  caller iterates the result.

A pattern is compiled once per evaluation into a tree of closures, one
per pattern node, each a window evaluator ``f(wi, lo, hi)``.  Tracing and
subpattern sharing are *compile-time hooks* on that one tree, not sibling
evaluators: with a live tracer every node is wrapped in its span; with
``share=True`` binary nodes and the root are wrapped in the share probe.
Neither hook costs anything when it is off.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterable, Sequence, Set
from functools import lru_cache, partial

from repro.columnar.column_log import ColumnarLog, as_columnar
from repro.core.eval.base import Engine, EvaluationStats, node_label
from repro.core.incident import IncidentSet
from repro.core.model import Log, LogRecord
from repro.core.pattern import (
    Atomic,
    BinaryPattern,
    Choice,
    Consecutive,
    Parallel,
    Pattern,
    Sequential,
)

__all__ = ["VectorizedEngine"]

#: Intermediate incident: ``(first, last, frozenset of is-lsn positions)``.
#: Within one workflow instance is-lsn and lsn are in bijection, so the
#: position set carries exactly the identity an Incident's lsn set does.
_Span = tuple[int, int, frozenset]

#: One compiled pattern node: ``f(wi, lo, hi)`` evaluates the node over the
#: instance window ``[lo, hi)`` (window number ``wi``), first-sorted.
#: Results may be shared (leaf caches, share entries): never mutate one.
_Node = Callable[[int, int, int], Sequence[_Span]]


def _sorted_by_first(incidents: list[_Span]) -> list[_Span]:
    incidents.sort(key=lambda o: (o[0], o[1]))
    return incidents


class _SubpatternKey:
    """A subpattern as a share key, hashed once.

    Patterns are frozen dataclasses whose hash recurses over the whole
    subtree on every call; the share hook probes once per node per
    instance window, so it keys on this wrapper instead."""

    __slots__ = ("pattern", "_hash")

    def __init__(self, pattern: Pattern):
        self.pattern = pattern
        self._hash = hash(pattern)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SubpatternKey) and self.pattern == other.pattern

    def __repr__(self) -> str:
        return str(self.pattern)


#: Interned, so probes for one subpattern from different patterns of a
#: batch meet the stored key by identity instead of a structural comparison.
_subpattern_key = lru_cache(maxsize=4096)(_SubpatternKey)


class VectorizedEngine(Engine):
    """Sort/hash-join evaluation over columnar windows (see module docs).

    Parameters
    ----------
    share:
        Keep node results per ``(window, subpattern)`` for as long as the
        engine stays on one log, so structurally equal subpatterns —
        within one pattern or across successive :meth:`evaluate` calls —
        are scanned and joined once (``shared_hits`` counts the node
        evaluations elided).  A hit skips its subtree's scans, joins,
        stats and spans entirely, which is where the batch evaluator's
        pairs saving comes from.
    """

    name = "vectorized"

    def __init__(self, *, share: bool = False, **kwargs):
        super().__init__(**kwargs)
        self._share = share
        self._shared: dict[tuple[int, _SubpatternKey], Sequence[_Span]] = {}
        self._bound: ColumnarLog | None = None
        self.shared_hits = 0

    def evaluate(self, log: "Log | ColumnarLog", pattern: Pattern) -> IncidentSet:
        columnar = as_columnar(log)
        return self._evaluate(
            columnar,
            pattern,
            enumerate(columnar.wid_windows()),
            partial(IncidentSet.from_spans, columnar),
        )

    def evaluate_delta(
        self,
        log: "Log | ColumnarLog",
        pattern: Pattern,
        base: IncidentSet,
        touched: Set[int],
    ) -> IncidentSet:
        """``evaluate(log, pattern)`` from ``base``, the pattern's kernel
        result at an earlier epoch of the store ``log`` is a snapshot of,
        and ``touched``, the instances with a record since: the pattern
        is compiled once, only the touched windows are joined, and every
        other instance keeps what it has in ``base``
        (:meth:`IncidentSet.carried_to
        <repro.core.incident.IncidentSet.carried_to>`).

        The stats count the joins done, so they are the kernel's over
        ``log.project(touched)``; ``max_incidents`` bounds the whole
        result as it does in :meth:`evaluate`.
        """
        columnar = as_columnar(log)
        windows = [
            (wi, (wid, lo, hi))
            for wid in sorted(touched)
            for wi, lo, hi in (columnar.window(wid),)
        ]
        return self._evaluate(
            columnar, pattern, windows, partial(base.carried_to, columnar, touched)
        )

    def _evaluate(
        self,
        columnar: ColumnarLog,
        pattern: Pattern,
        windows: Iterable[tuple[int, tuple[int, int, int]]],
        result: Callable[[list[tuple[int, int, Sequence[_Span]]]], IncidentSet],
    ) -> IncidentSet:
        """Join ``windows``, each ``(window number, (wid, lo, hi))`` in wid
        order; ``result`` makes the incident set of the ``(wid, lo,
        spans)`` found."""
        stats = self._new_stats()
        found: list[tuple[int, int, Sequence[_Span]]] = []
        n = 0
        with self.tracer.span("evaluate", key=(), engine=self.name, pattern=str(pattern)):
            root = self._compile(columnar, pattern, stats)
            for wi, (wid, lo, hi) in windows:
                self._checkpoint(stats)
                spans = root(wi, lo, hi)
                if spans:
                    found.append((wid, lo, spans))
                    n += len(spans)
            incidents = result(found)
            self._check_budget(len(incidents))
            stats.note_live(n)
            stats.incidents_produced += n
        self._finish(stats)
        return incidents

    def count(self, log: "Log | ColumnarLog", pattern: Pattern) -> int:
        """Number of incidents; uses the output-free counting DP
        (:mod:`repro.core.eval.counting`) for ⊙/⊳ chains of leaves, where
        the incident set may be quadratic or worse in the log size."""
        from repro.core.eval.counting import count_incidents, supports_counting

        if supports_counting(pattern):
            return count_incidents(
                log,
                pattern,
                tracer=self.tracer,
                metrics=self.metrics,
                governor=self.governor,
            )
        return len(self.evaluate(log, pattern))

    def exists(self, log: "Log | ColumnarLog", pattern: Pattern) -> bool:
        """Short-circuit existence check.

        For patterns whose operators are only ``⊳`` and ``⊗``, a greedy
        earliest-completion scan decides existence in time linear in each
        instance trace, never materialising incident sets.  Other
        patterns evaluate instance by instance, so a hit in an early
        instance stops the scan.
        """
        columnar = as_columnar(log)
        stats = self._new_stats()
        if _greedy_safe(pattern):
            rows = columnar._rows
            hit = lambda wi, lo, hi: (  # noqa: E731
                _earliest_end(rows[lo:hi], pattern, 1) is not None
            )
        else:
            hit = self._compile(columnar, pattern, stats)
        found = False
        for wi, (_, lo, hi) in enumerate(columnar.wid_windows()):
            self._checkpoint(stats)
            if hit(wi, lo, hi):
                found = True
                break
        self._finish(stats)
        return found

    # -- compilation: one closure per pattern node -----------------------------

    def _compile(
        self,
        columnar: ColumnarLog,
        pattern: Pattern,
        stats: EvaluationStats,
        key: int | str = "root",
    ) -> _Node:
        """Compile ``pattern`` into its window evaluator.

        Dispatch, leaf act-id resolution and join selection happen once
        per evaluation instead of once per node per instance, and the
        per-node stats epilogue (budget check, live peak, incidents
        produced) is inlined into the closures.  ``key`` is the node's
        position under its parent (the span key).  The hooks wrap the
        finished node: the span outside the node, the share probe outside
        the span — so a shared hit records neither stats nor a span.
        """
        if key == "root" and self._share and columnar is not self._bound:
            # shared results are keyed by window number, so they are only
            # valid for one columnar log
            self._shared.clear()
            self._bound = columnar
        if isinstance(pattern, Atomic):
            node = self._compile_atomic(columnar, pattern, stats)
        else:
            assert isinstance(pattern, BinaryPattern)
            left = self._compile(columnar, pattern.left, stats, 0)
            right = self._compile(columnar, pattern.right, stats, 1)
            node = self._compile_join(pattern, left, right, stats)
        if self.tracer.enabled:
            node = self._traced(pattern, key, node)
        # leaves are answered from the activity index faster than a share
        # probe could be; hooking them would make every hit above them pay
        # for what it skips
        if self._share and (key == "root" or isinstance(pattern, BinaryPattern)):
            node = self._shared_node(pattern, node)
        return node

    def _compile_join(
        self, pattern: BinaryPattern, left: _Node, right: _Node, stats: EvaluationStats
    ) -> _Node:
        if isinstance(pattern, Sequential):
            join = partial(
                self._join_sequential,
                stats,
                bound=getattr(pattern, "bound", None),
            )
        elif isinstance(pattern, Consecutive):
            join = partial(self._join_consecutive, stats)
        elif isinstance(pattern, Parallel):
            join = partial(self._join_parallel, stats)
        else:
            join = partial(self._union_choice, stats)

        symbol = pattern.symbol
        if self.tracer.enabled:
            join = self._observed(join, symbol, stats)
        max_incidents = self.max_incidents
        governor = self.governor
        # note_operator mirrors into the metrics registry when one is
        # bound; inline the plain-counter form otherwise
        note_operator = stats.note_operator if stats.registry is not None else None
        per_operator = stats.per_operator

        def node(wi: int, lo: int, hi: int) -> list[_Span]:
            o1 = left(wi, lo, hi)
            o2 = right(wi, lo, hi)
            if note_operator is not None:
                note_operator(symbol)
            else:
                stats.operator_evals += 1
                per_operator[symbol] = per_operator.get(symbol, 0) + 1
            result = join(o1, o2)
            if governor is not None:
                self.last_stats = stats
                governor.check(stats)
            n = len(result)
            if max_incidents is not None and n > max_incidents:
                self._check_budget(n)
            if n > stats.max_live_incidents:
                stats.max_live_incidents = n
            stats.incidents_produced += n
            return result

        return node

    def _compile_atomic(
        self, columnar: ColumnarLog, pattern: Atomic, stats: EvaluationStats
    ) -> _Node:
        """Window evaluator of one leaf.  Within the window the record at
        row ``r`` has is-lsn ``r - lo + 1`` (rows are is-lsn ordered,
        per-instance is-lsn consecutive from 1), so positions come from
        row arithmetic — no column reads."""
        max_incidents = self.max_incidents

        def epilogue(result: list[_Span]) -> list[_Span]:
            n = len(result)
            if max_incidents is not None and n > max_incidents:
                self._check_budget(n)
            if n > stats.max_live_incidents:
                stats.max_live_incidents = n
            stats.incidents_produced += n
            return result

        if type(pattern) is not Atomic:
            # attribute-guarded leaf subclass: needs the attribute maps, so
            # match the window's record objects (is-lsn order = first-sorted)
            all_rows = columnar._rows
            matches = pattern.matches

            def guarded_leaf(wi: int, lo: int, hi: int) -> list[_Span]:
                return epilogue(
                    [
                        (r.is_lsn, r.is_lsn, frozenset((r.is_lsn,)))
                        for r in all_rows[lo:hi]
                        if matches(r)
                    ]
                )

            return guarded_leaf
        act_id = columnar.act_id_of(pattern.name)
        if pattern.negated:
            act_col = columnar._act_id

            def negated_leaf(wi: int, lo: int, hi: int) -> list[_Span]:
                base = 1 - lo
                return epilogue(
                    [
                        (row + base, row + base, frozenset((row + base,)))
                        for row in range(lo, hi)
                        if act_col[row] != act_id
                    ]
                )

            return negated_leaf
        if act_id is None:
            # absent activity: the empty result leaves every counter
            # unchanged, so no epilogue is needed
            return lambda wi, lo, hi: []
        spans_by_window = columnar.leaf_spans(act_id)

        def positive_leaf(wi: int, lo: int, hi: int) -> list[_Span]:
            return epilogue(spans_by_window[wi])

        return positive_leaf

    # -- compile-time hooks ----------------------------------------------------

    def _traced(self, pattern: Pattern, key: int | str, node: _Node) -> _Node:
        """``node`` inside its key-merged span (children nest under it)."""
        tracer = self.tracer
        label = node_label(pattern)

        def traced_node(wi: int, lo: int, hi: int) -> Sequence[_Span]:
            with tracer.span(label, key=key) as span:
                result = node(wi, lo, hi)
                span.add(incidents=len(result))
            return result

        return traced_node

    def _observed(self, join, symbol: str, stats: EvaluationStats):
        """``join`` reporting operand sizes and its own pairs to the span
        of the node that runs it (open, and innermost, at that point)."""
        tracer = self.tracer

        def observed_join(o1: Sequence[_Span], o2: Sequence[_Span]) -> list[_Span]:
            pairs_before = stats.pairs_examined
            result = join(o1, o2)
            span = tracer.current
            span.set_tag("operator", symbol)
            span.add(
                n1=len(o1),
                n2=len(o2),
                pairs=stats.pairs_examined - pairs_before,
            )
            return result

        return observed_join

    def _shared_node(self, pattern: Pattern, node: _Node) -> _Node:
        """``node`` behind the in-run ``(window, subpattern)`` share."""
        key = _subpattern_key(pattern)
        shared = self._shared

        def shared_node(wi: int, lo: int, hi: int) -> Sequence[_Span]:
            result = shared.get((wi, key))
            if result is not None:
                self.shared_hits += 1
                return result
            result = shared[wi, key] = node(wi, lo, hi)
            return result

        return shared_node

    # -- the four joins, over position tuples ----------------------------------

    def _join_sequential(
        self,
        stats: EvaluationStats,
        left: Sequence[_Span],
        right: Sequence[_Span],
        *,
        bound: int | None = None,
    ) -> list[_Span]:
        if not left or not right:
            return []
        firsts = [o[0] for o in right]
        out: list[_Span] = []
        seen: set[frozenset] = set()
        n = len(right)
        for first1, last1, pos1 in left:
            # qualifying right incidents (first > last1, and within the
            # window bound if one applies) form a contiguous slice of the
            # first-sorted right list
            start = bisect_right(firsts, last1)
            stop = n if bound is None else bisect_right(firsts, last1 + bound)
            for i in range(start, stop):
                stats.pairs_examined += 1
                first2, last2, pos2 = right[i]
                union = pos1 | pos2
                if union not in seen:
                    seen.add(union)
                    out.append((first1, last2 if last2 > last1 else last1, union))
        return _sorted_by_first(out)

    def _join_consecutive(
        self,
        stats: EvaluationStats,
        left: Sequence[_Span],
        right: Sequence[_Span],
    ) -> list[_Span]:
        if not left or not right:
            return []
        by_first: dict[int, list[_Span]] = {}
        for o2 in right:
            by_first.setdefault(o2[0], []).append(o2)
        out: list[_Span] = []
        seen: set[frozenset] = set()
        for first1, last1, pos1 in left:
            for first2, last2, pos2 in by_first.get(last1 + 1, ()):
                stats.pairs_examined += 1
                union = pos1 | pos2
                if union not in seen:
                    seen.add(union)
                    out.append((first1, last2 if last2 > last1 else last1, union))
        return _sorted_by_first(out)

    def _join_parallel(
        self,
        stats: EvaluationStats,
        left: Sequence[_Span],
        right: Sequence[_Span],
    ) -> list[_Span]:
        if not left or not right:
            return []
        out: list[_Span] = []
        seen: set[frozenset] = set()
        for first1, last1, pos1 in left:
            for first2, last2, pos2 in right:
                stats.pairs_examined += 1
                # span-based quick accept: non-overlapping is-lsn spans
                # cannot share records
                if last1 < first2 or last2 < first1 or pos1.isdisjoint(pos2):
                    union = pos1 | pos2
                    if union not in seen:
                        seen.add(union)
                        out.append(
                            (
                                first1 if first1 < first2 else first2,
                                last1 if last1 > last2 else last2,
                                union,
                            )
                        )
        return _sorted_by_first(out)

    def _union_choice(
        self,
        stats: EvaluationStats,
        left: Sequence[_Span],
        right: Sequence[_Span],
    ) -> list[_Span]:
        stats.pairs_examined += len(left) + len(right)
        seen: set[frozenset] = {o[2] for o in left}
        merged = list(left)
        merged.extend(o for o in right if o[2] not in seen)
        return _sorted_by_first(merged)


# ---------------------------------------------------------------------------
# Greedy existence check for {atom, ⊳, ⊗} patterns.
# ---------------------------------------------------------------------------

def _greedy_safe(pattern: Pattern) -> bool:
    """Whether the greedy earliest-completion scan decides existence for
    ``pattern``.  Sound for atoms, ``⊳`` and ``⊗``: the earliest completion
    of ``p1`` never rules out a later completion that greedy would need
    (matches are unconstrained suffix-ward).  ``⊙`` (exact adjacency) and
    ``⊕`` (record disjointness) break that dominance argument."""
    if isinstance(pattern, Atomic):
        return True
    # note: *subclasses* of Sequential (windowed ⊳) are excluded — an upper
    # window bound breaks the earliest-completion dominance too.
    if type(pattern) is Sequential or isinstance(pattern, Choice):
        return _greedy_safe(pattern.left) and _greedy_safe(pattern.right)
    return False


def _earliest_end(
    trace: Sequence[LogRecord], pattern: Pattern, start: int
) -> int | None:
    """Smallest ``last`` over incidents of ``pattern`` inside ``trace``
    whose ``first`` is >= ``start`` (is-lsn positions), or None.

    ``trace`` is one instance's records in is-lsn order; position ``i`` in
    the trace has ``is_lsn == i + 1``.
    """
    if isinstance(pattern, Atomic):
        for record in trace[start - 1 :]:
            if pattern.matches(record):
                return record.is_lsn
        return None
    if isinstance(pattern, Choice):
        ends = [
            e
            for e in (
                _earliest_end(trace, pattern.left, start),
                _earliest_end(trace, pattern.right, start),
            )
            if e is not None
        ]
        return min(ends) if ends else None
    assert isinstance(pattern, Sequential)
    left_end = _earliest_end(trace, pattern.left, start)
    if left_end is None:
        return None
    return _earliest_end(trace, pattern.right, left_end + 1)
